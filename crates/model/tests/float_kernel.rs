//! Differential test of the float kernel: [`TextWriter::push_f64`]
//! must write exactly the bytes std's `format!("{x}")` writes, for every
//! `f64`. Replies print floats through the kernel, so one differing digit
//! would change the text wire format.
//!
//! Covered: signed zeros and non-finite values, every power of two, every
//! power of ten `1e-323..=1e308`, the bit patterns at both ends of the
//! subnormal range and below `f64::MAX`, the exact-tie class `k + 0.25`
//! (where Ryū's round-half-even and std's round-half-up part), and seeded
//! random bit patterns. `release_sweep` repeats the random part for 10^8
//! patterns: `cargo test --release -p mad-model --test float_kernel --
//! --ignored`.

use mad_model::text::TextWriter;

/// Compare one value; returns the kernel's text.
fn check(x: f64) -> String {
    let mut writer = TextWriter::new();
    writer.push_f64(x);
    let got = writer.into_string();
    let want = format!("{x}");
    assert!(
        got == want,
        "{:#018x}: push_f64 wrote {got}, std writes {want}",
        x.to_bits()
    );
    got
}

/// Compare `x` and `-x`.
fn check_both_signs(x: f64) {
    check(x);
    check(-x);
}

/// SplitMix64: a seeded stream of well-mixed 64-bit patterns.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn zeros_and_non_finite_values() {
    for x in [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        check(x);
    }
}

#[test]
fn every_power_of_two() {
    // 2^-1074 ..= 2^-1023 are subnormal: one mantissa bit each
    for shift in 0..52 {
        check_both_signs(f64::from_bits(1 << shift));
    }
    // 2^-1022 ..= 2^1023: an empty mantissa under each biased exponent
    for biased in 1..=2046u64 {
        check_both_signs(f64::from_bits(biased << 52));
    }
}

#[test]
fn every_power_of_ten() {
    for e in -323..=308 {
        let x: f64 = format!("1e{e}").parse().unwrap();
        check_both_signs(x);
    }
}

#[test]
fn bit_patterns_at_the_ends_of_the_range() {
    let min_normal = f64::MIN_POSITIVE.to_bits();
    let max = f64::MAX.to_bits();
    for bits in (1..=4096)
        .chain(min_normal - 4096..min_normal + 4096)
        .chain(max - 4095..=max)
    {
        check_both_signs(f64::from_bits(bits));
    }
}

#[test]
fn exact_ties_round_up_like_std() {
    // two shortest candidates equally near: std takes the larger
    for (x, want) in [
        (1_658_206_780_088_562.0 + 0.25, "1658206780088562.3"),
        (233_115_890_514_796.0 + 0.125, "233115890514796.13"),
    ] {
        assert_eq!(check(x), want);
    }
    // k + 0.25 (and k + 0.75) is exact below 2^51 and a tie between
    // k.2 and k.3 (k.7 and k.8) wherever one decimal is shortest
    let mut rng = SplitMix(0x0725_0000_0000_0049);
    for _ in 0..20_000 {
        let k = (1u64 << 49) + rng.next() % ((1u64 << 53) - (1u64 << 49));
        let k = k as f64;
        check_both_signs(k + 0.25);
        check_both_signs(k + 0.75);
    }
}

#[test]
fn seeded_random_bit_patterns() {
    let mut rng = SplitMix(41);
    for _ in 0..200_000 {
        check(f64::from_bits(rng.next()));
    }
    // values shaped like generated attribute data: uniform in [0, 10^m)
    for _ in 0..50_000 {
        let unit = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        let magnitude = 10f64.powi((rng.next() % 16) as i32 - 4);
        check(unit * magnitude);
    }
}

#[test]
#[ignore = "10^8 patterns: run in release with --ignored"]
fn release_sweep() {
    let mut rng = SplitMix(0x5EED_0000_0000_0001);
    for _ in 0..100_000_000u32 {
        check(f64::from_bits(rng.next()));
    }
}
