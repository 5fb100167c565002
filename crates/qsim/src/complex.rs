//! Minimal complex arithmetic for the statevector simulator.
//!
//! A tiny purpose-built type (rather than an external dependency) keeps the
//! simulator self-contained; only the operations the simulator needs are
//! provided.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f64` components, laid out as `[re, im]` (the
/// SIMD kernels load amplitude slices as packed `f64` pairs).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor.
///
/// # Examples
///
/// ```
/// use qsim::complex::{c64, C64};
/// assert_eq!(c64(1.0, -2.0), C64 { re: 1.0, im: -2.0 });
/// ```
#[inline]
pub const fn c64(re: f64, im: f64) -> C64 {
    C64 { re, im }
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = c64(0.0, 0.0);
    /// One.
    pub const ONE: C64 = c64(1.0, 0.0);
    /// The imaginary unit.
    pub const I: C64 = c64(0.0, 1.0);

    /// `e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> C64 {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> C64 {
        c64(self.re, -self.im)
    }

    /// Squared modulus `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> C64 {
        c64(self.re * s, self.im * s)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        c64(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, o: C64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        c64(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        c64(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

impl Sum for C64 {
    /// Plain left-to-right fold: summation order is exactly the iteration
    /// order, which the deterministic kernel reductions rely on.
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        c64(-self.re, -self.im)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -1.0);
        assert_eq!(a + b, c64(4.0, 1.0));
        assert_eq!(a - b, c64(-2.0, 3.0));
        assert_eq!(a * b, c64(5.0, 5.0));
        assert_eq!(-a, c64(-1.0, -2.0));
        assert_eq!(a.conj(), c64(1.0, -2.0));
    }

    #[test]
    fn modulus() {
        assert!((c64(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
        assert!((c64(3.0, 4.0).norm_sqr() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn polar() {
        let z = C64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!((z.re).abs() < 1e-12);
        assert!((z.im - 2.0).abs() < 1e-12);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(C64::I * C64::I, c64(-1.0, 0.0));
    }
}
