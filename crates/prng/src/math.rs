//! `ln` and `exp` from IEEE basic operations only: `+ - * /`, comparisons
//! and bit manipulation, in a fixed order with no fused multiply-add. IEEE
//! 754 rounds those correctly everywhere, so unlike `f64::ln` / `f64::exp`
//! (the platform's `libm`) these give the same bits on every platform. Both
//! are fdlibm's range reduction plus a fixed minimax polynomial, within one
//! ulp of the true result.

/// `ln 2` split so that `k · LN2_HI` is exact for `|k| < 2^11`, and `1/ln 2`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);

/// `ln`'s polynomial in `s²`, `s = f / (2+f)`, and `exp`'s in `r²`.
const LG: [u64; 7] = [
    0x3fe5_5555_5555_5593,
    0x3fd9_9999_9997_fa04,
    0x3fd2_4924_9422_9359,
    0x3fcc_71c5_1d8e_78af,
    0x3fc7_4664_96cb_03de,
    0x3fc3_9a09_d078_c69f,
    0x3fc2_f112_df3e_5244,
];
const P: [u64; 5] = [
    0x3fc5_5555_5555_553e,
    0xbf66_c16c_16be_bd93,
    0x3f11_566a_af25_de2c,
    0xbebb_bd41_c5d2_6bf1,
    0x3e66_3769_72be_a4d0,
];

/// `2^n` for `-1022 <= n <= 1023`.
fn pow2(n: i32) -> f64 {
    f64::from_bits(((0x3ff + n) as u64) << 52)
}

/// The natural logarithm: `-inf` at `±0`, NaN below zero, exactly `0` at 1.
pub fn ln(x: f64) -> f64 {
    let (bits, k) = match x {
        _ if x.is_nan() || x < 0.0 => return f64::NAN,
        _ if x == 0.0 => return f64::NEG_INFINITY,
        _ if x == f64::INFINITY => return x,
        _ if x < f64::MIN_POSITIVE => ((x * pow2(54)).to_bits(), -54),
        _ => (x.to_bits(), 0),
    };
    // x = 2^k · m with m in [sqrt(2)/2, sqrt(2)).
    let hx = (bits >> 32) as u32 + (0x3ff0_0000 - 0x3fe6_a09e);
    let dk = f64::from(k + (hx >> 20) as i32 - 0x3ff);
    let hi = u64::from((hx & 0x000f_ffff) + 0x3fe6_a09e);
    let f = f64::from_bits(hi << 32 | (bits & 0xffff_ffff)) - 1.0;
    let [l1, l2, l3, l4, l5, l6, l7] = LG.map(f64::from_bits);
    let (hfsq, s) = (0.5 * f * f, f / (2.0 + f));
    let z = s * s;
    let w = z * z;
    let r = z * (l1 + w * (l3 + w * (l5 + w * l7))) + w * (l2 + w * (l4 + w * l6));
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// `e^x`: `+inf` above ~709.78, `0` below ~-745.13, exactly `1` at `0`,
/// NaN only for NaN.
pub fn exp(x: f64) -> f64 {
    if x > 709.782_712_893_384 {
        return f64::INFINITY;
    }
    if x < -745.133_219_101_941_1 {
        return 0.0;
    }
    // x = k·ln2 + (hi - lo), |hi - lo| <= ln2 / 2.
    let k = (INV_LN2 * x + 0.5f64.copysign(x)) as i32;
    let (hi, lo) = (x - f64::from(k) * LN2_HI, f64::from(k) * LN2_LO);
    let (r, [p1, p2, p3, p4, p5]) = (hi - lo, P.map(f64::from_bits));
    let rr = r * r;
    let c = r - rr * (p1 + rr * (p2 + rr * (p3 + rr * (p4 + rr * p5))));
    let y = 1.0 + (r * c / (2.0 - c) - lo + hi);
    // Two steps where 2^k is not normal, so a subnormal result rounds once.
    match k {
        1024 => y * 2.0 * pow2(1023),
        ..=-1023 => y * pow2(-1022 + 53) * pow2(k + 1022 - 53),
        _ => y * pow2(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in representable doubles between two finite results of the
    /// same sign or zero.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    #[test]
    fn special_values() {
        assert_eq!(ln(1.0).to_bits(), 0);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(-0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f64::NAN).is_nan() && exp(f64::NAN).is_nan());
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp(710.0), f64::INFINITY);
        // Underflow: subnormal just above the cut, zero below it.
        let tiny = exp(-744.0);
        assert!(tiny > 0.0 && !tiny.is_normal(), "{tiny:e}");
        assert_eq!(exp(-746.0), 0.0);
        assert_eq!(exp(-1e300), 0.0);
        // Subnormal inputs take the scaled path.
        assert_eq!(ln(f64::from_bits(1)), -1074.0 * LN2_HI + -1074.0 * LN2_LO);
        assert!((ln(f64::MIN_POSITIVE / 4.0) - (-1024.0 * std::f64::consts::LN_2)).abs() < 1e-12);
        assert!((ln(2.0) - std::f64::consts::LN_2).abs() <= f64::EPSILON);
        assert!((exp(1.0) - std::f64::consts::E).abs() <= 2.0 * f64::EPSILON);
        // No NaN for any finite input of either sign.
        for x in [
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            1e-310,
            -1e-310,
            0.5,
            -700.0,
        ] {
            assert!(!exp(x).is_nan(), "exp({x:e})");
            if x > 0.0 {
                assert!(ln(x).is_finite(), "ln({x:e})");
            }
        }
    }

    /// Within one ulp of the host `libm` over a sweep of every binade.
    /// Miri perturbs float intrinsics, so the reference is only meaningful
    /// on real hardware.
    #[cfg(not(miri))]
    #[test]
    fn within_one_ulp_of_std() {
        // Every 2^-12 of each binade's mantissa, low bits perturbed, across
        // the whole positive range, subnormals included.
        let mut bits = 1u64;
        while bits < f64::INFINITY.to_bits() {
            let x = f64::from_bits(bits);
            assert!(
                ulps(ln(x), x.ln()) <= 1,
                "ln({x:e}) = {:e} vs {:e}",
                ln(x),
                x.ln()
            );
            bits += (1 << 40) | (bits % 7919);
        }
        // exp over its whole finite range, and densely near zero.
        let n = 400_000;
        for i in 0..=n {
            for x in [
                -745.0 + 1455.0 * f64::from(i) / f64::from(n),
                (f64::from(i) / f64::from(n) - 0.5) * 1e-3,
            ] {
                let (got, want) = (exp(x), x.exp());
                assert!(ulps(got, want) <= 1, "exp({x:e}) = {got:e} vs {want:e}");
            }
        }
    }
}
