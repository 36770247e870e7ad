//! The text writer: integers, atom ids, [`Value`]s and floats appended to
//! a reply without `core::fmt`.
//!
//! Every server-side reply renderer writes into a [`TextWriter`], and
//! `Display` for [`Value`] and `Debug`/`Display` for [`AtomId`] delegate
//! to it, so the text encoding of a value has one definition:
//!
//! * [`TextWriter::push_u64`] writes decimal, two digits per step from a
//!   200-byte table (a value's integer takes its sign first);
//! * [`TextWriter::push_atom_id`] writes `a<ty>.<slot>`;
//! * [`TextWriter::push_value`] writes `NULL`, `true`/`false`, integers,
//!   `'text'`, `@a1.2`, and floats. An integral finite float below `1e15`
//!   in magnitude prints as `<int>.0` (`-0.0` keeps its sign); every other
//!   float goes through [`TextWriter::push_f64`];
//! * [`TextWriter::push_f64`] writes exactly what std's `{}` prints. That
//!   is the shortest decimal that parses back to the same `f64`, laid out
//!   positionally (never with an exponent), or `NaN`, `inf`, `-inf`.
//!
//! The shortest digits come from Ryū (Ulf Adams, *Ryū: fast float-to-string
//! conversion*, PLDI 2018). Its 128-bit multipliers are `u128`s, and both
//! power-of-five tables are computed at compile time. There is one
//! departure from Ryū: a float lying exactly halfway between the two
//! nearest shortest candidates takes the larger one, as std does, not the
//! even one (`1658206780088562.25` prints as `1658206780088562.3`).
//!
//! The writer holds bytes, not a `String`: digits go in as the ASCII they
//! are, without a UTF-8 check per number. Only `&str`s and that ASCII go
//! in, so the text is UTF-8 by construction, and
//! [`TextWriter::into_string`] checks it once for the whole reply.

use crate::ids::AtomId;
use crate::value::Value;

/// A reply under construction (see the module docs).
#[derive(Debug, Default)]
pub struct TextWriter {
    buf: Vec<u8>,
}

impl TextWriter {
    /// An empty writer.
    pub fn new() -> Self {
        TextWriter::default()
    }

    /// An empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        TextWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        // every push appends a `&str` or ASCII, so this never falls back
        String::from_utf8(self.buf)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Append `s`.
    #[inline]
    pub fn push_str(&mut self, s: &str) {
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append `c`.
    #[inline]
    pub fn push_char(&mut self, c: char) {
        let mut utf8 = [0u8; 4];
        self.push_str(c.encode_utf8(&mut utf8));
    }

    /// Append `v` in decimal.
    #[inline]
    pub fn push_u64(&mut self, v: u64) {
        if v < 10 {
            self.buf.push(digit(v));
            return;
        }
        let mut scratch = [0u8; 20];
        let start = write_digits(&mut scratch, 20, v);
        self.buf
            .extend_from_slice(scratch.get(start..).unwrap_or_default());
    }

    /// Append `v` in decimal, with a leading `-` when negative.
    #[inline]
    fn push_i64(&mut self, v: i64) {
        if v < 0 {
            self.buf.push(b'-');
        }
        self.push_u64(v.unsigned_abs());
    }

    /// Append `id` as `a<ty>.<slot>`.
    #[inline]
    pub fn push_atom_id(&mut self, id: AtomId) {
        // written right to left into one scratch, appended in one copy
        let mut scratch = [0u8; 22];
        let dot = write_digits(&mut scratch, 22, u64::from(id.slot)) - 1;
        put(&mut scratch, dot, b'.');
        let a = write_digits(&mut scratch, dot, u64::from(id.ty.0)) - 1;
        put(&mut scratch, a, b'a');
        self.buf
            .extend_from_slice(scratch.get(a..).unwrap_or_default());
    }

    /// Append `v` as a reply shows it: `NULL`, `true`/`false`, an integer,
    /// a float (see the module docs), `'text'` or `@<atom id>`.
    pub fn push_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.push_str("NULL"),
            Value::Bool(true) => self.push_str("true"),
            Value::Bool(false) => self.push_str("false"),
            Value::Int(i) => self.push_i64(*i),
            Value::Float(x) => self.push_float_value(*x),
            Value::Text(s) => {
                self.buf.push(b'\'');
                self.push_str(s);
                self.buf.push(b'\'');
            }
            Value::Id(a) => {
                self.buf.push(b'@');
                self.push_atom_id(*a);
            }
        }
    }

    /// A float [`Value`]: an integral finite `x` below `1e15` in magnitude
    /// as `<int>.0` (what `{x:.1}` prints for it), every other one as
    /// [`TextWriter::push_f64`].
    fn push_float_value(&mut self, x: f64) {
        if x.fract() == 0.0 && x.abs() < 1e15 {
            if x.is_sign_negative() {
                self.buf.push(b'-');
            }
            let int = x.abs() as u64;
            self.push_u64(int);
            self.push_str(".0");
        } else {
            self.push_f64(x);
        }
    }

    /// Append `x` exactly as std's `{}` formats it: the shortest decimal
    /// that parses back to `x`, positional, with `-` on a negative value
    /// (including `-0`), or `NaN`, `inf`, `-inf`.
    pub fn push_f64(&mut self, x: f64) {
        if x.is_nan() {
            self.push_str("NaN");
            return;
        }
        if x.is_sign_negative() {
            self.buf.push(b'-');
        }
        if x.is_infinite() {
            self.push_str("inf");
            return;
        }
        if x == 0.0 {
            self.buf.push(b'0');
            return;
        }
        let (mantissa, exponent) = shortest(x.to_bits());
        // `len` digits (at most 17), the decimal point `point` digits in
        let len = mantissa.checked_ilog10().unwrap_or(0) + 1;
        let point = exponent + len.cast_signed();
        let (digits, zeros) = (len as usize, point.unsigned_abs() as usize);
        // every layout that fits goes into one zero-filled scratch
        let mut scratch = [b'0'; FLOAT_SCRATCH];
        let used = if point > 0 && zeros < digits {
            // the digits one place right, then the integer part moved
            // back over the point
            write_digits(&mut scratch, digits + 1, mantissa);
            scratch.copy_within(1..=zeros, 0);
            put(&mut scratch, zeros, b'.');
            digits + 1
        } else if point > 0 && zeros <= FLOAT_SCRATCH {
            // the digits, then zeros up to the point
            write_digits(&mut scratch, digits, mantissa);
            zeros
        } else if point <= 0 && 2 + zeros + digits <= FLOAT_SCRATCH {
            // `0.`, zeros, the digits
            put(&mut scratch, 1, b'.');
            write_digits(&mut scratch, 2 + zeros + digits, mantissa);
            2 + zeros + digits
        } else {
            return self.push_long_float(mantissa, len, point);
        };
        self.push_scratch(&scratch, used);
    }

    /// Append `scratch[..used]`. The whole array is copied, a copy of
    /// fixed size the compiler inlines, and the rest cut off again.
    #[inline]
    fn push_scratch<const N: usize>(&mut self, scratch: &[u8; N], used: usize) {
        let end = self.buf.len() + used.min(N);
        self.buf.extend_from_slice(scratch);
        self.buf.truncate(end);
    }

    /// [`TextWriter::push_f64`]'s layouts with a run of zeros longer than
    /// its scratch (a magnitude below `1e-14` or at least `1e32`).
    #[cold]
    fn push_long_float(&mut self, mantissa: u64, len: u32, point: i32) {
        let mut scratch = [0u8; 20];
        let start = write_digits(&mut scratch, 20, mantissa);
        let digits = scratch.get(start..).unwrap_or_default();
        if point <= 0 {
            self.push_str("0.");
            self.push_zeros(point.unsigned_abs());
            self.buf.extend_from_slice(digits);
        } else {
            self.buf.extend_from_slice(digits);
            self.push_zeros(point.unsigned_abs() - len);
        }
    }

    /// Append `n` zeros.
    fn push_zeros(&mut self, n: u32) {
        self.buf.resize(self.buf.len() + n as usize, b'0');
    }
}

/// The scratch [`TextWriter::push_f64`] lays a float out in: room for a
/// 17-digit mantissa and a point, or zeros up to `1e32`.
const FLOAT_SCRATCH: usize = 32;

/// The ASCII digit of `d < 10`.
#[inline]
fn digit(d: u64) -> u8 {
    b'0' + d as u8
}

/// `buf[at] = byte`, for an `at` the caller keeps inside `buf`.
#[inline]
fn put(buf: &mut [u8], at: usize, byte: u8) {
    if let Some(slot) = buf.get_mut(at) {
        *slot = byte;
    }
}

/// `"00" "01" … "99"`: the two digits of `n < 100` at bytes `2n, 2n + 1`.
const DIGIT_PAIRS: [u8; 200] = digit_pairs();

#[expect(
    clippy::indexing_slicing,
    reason = "const evaluation over n < 100: an out-of-range index fails the build"
)]
const fn digit_pairs() -> [u8; 200] {
    let mut t = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        t[2 * n] = b'0' + (n / 10) as u8;
        t[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    t
}

/// Write the digits of `pair < 100` to `buf[at..at + 2]`.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "pair < 100 indexes the table; callers keep `at + 2` inside `buf`"
)]
fn write_pair(buf: &mut [u8], at: usize, pair: u32) {
    let p = pair as usize * 2;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[p..p + 2]);
}

/// Write the decimal digits of `v` into `buf`, ending just before `end`,
/// and return where they start. Eight digits at a time go through `u32`
/// arithmetic, two per table lookup. Callers leave room for every digit
/// (at most 20) before `end`.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers leave room for every digit before `end`; a pair index is below 100"
)]
fn write_digits(buf: &mut [u8], end: usize, mut v: u64) -> usize {
    let mut pos = end;
    while v >= 100_000_000 {
        let chunk = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (high, low) = (chunk / 10_000, chunk % 10_000);
        write_pair(buf, pos - 2, low % 100);
        write_pair(buf, pos - 4, low / 100);
        write_pair(buf, pos - 6, high % 100);
        write_pair(buf, pos - 8, high / 100);
        pos -= 8;
    }
    let mut v = v as u32;
    while v >= 100 {
        write_pair(buf, pos - 2, v % 100);
        v /= 100;
        pos -= 2;
    }
    if v >= 10 {
        write_pair(buf, pos - 2, v);
        pos -= 2;
    } else {
        pos -= 1;
        buf[pos] = b'0' + v as u8;
    }
    pos
}

// ---------------------------------------------------------------------
// Ryū's shortest digits (d2d), over u128 multipliers.
// ---------------------------------------------------------------------

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bit length of every multiplier in both tables.
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_TABLE_SIZE: usize = 342;
const POW5_TABLE_SIZE: usize = 326;

/// `⌊2^k / 5^q⌋ + 1` with `k = pow5bits(q) - 1 + 125`: the multiplier for
/// `10^-q` when the binary exponent is non-negative.
const POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = pow5_inv_table();
/// The top 125 bits of `5^i`: the multiplier for `5^i` when the binary
/// exponent is negative.
const POW5_SPLIT: [u128; POW5_TABLE_SIZE] = pow5_table();

/// Limbs (little-endian `u64`s) of the compile-time big integers: 1024
/// bits hold `5^341` (792 bits) and `2^960`.
const LIMBS: usize = 16;
/// `⌊2^k / 5^q⌋ = ⌊⌊2^INV_SHIFT / 5^q⌋ / 2^(INV_SHIFT - k)⌋`, and
/// `INV_SHIFT` exceeds the largest `k` (916).
const INV_SHIFT: usize = 960;

#[expect(
    clippy::indexing_slicing,
    reason = "const evaluation: an out-of-range index fails the build"
)]
const fn pow5_table() -> [u128; POW5_TABLE_SIZE] {
    let mut t = [0u128; POW5_TABLE_SIZE];
    let mut p = [0u64; LIMBS];
    p[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let bits = pow5bits(i as i32);
        t[i] = if bits <= POW5_BITCOUNT {
            big_bits_at(&p, 0) << (POW5_BITCOUNT - bits)
        } else {
            big_bits_at(&p, (bits - POW5_BITCOUNT) as usize)
        };
        big_mul5(&mut p);
        i += 1;
    }
    t
}

#[expect(
    clippy::indexing_slicing,
    reason = "const evaluation: an out-of-range index fails the build"
)]
const fn pow5_inv_table() -> [u128; POW5_INV_TABLE_SIZE] {
    let mut t = [0u128; POW5_INV_TABLE_SIZE];
    // q = ⌊2^INV_SHIFT / 5^i⌋, one division by 5 per step
    let mut q = [0u64; LIMBS];
    q[INV_SHIFT / 64] = 1 << (INV_SHIFT % 64);
    let mut i = 0;
    while i < POW5_INV_TABLE_SIZE {
        let k = (pow5bits(i as i32) - 1 + POW5_BITCOUNT) as usize;
        t[i] = big_bits_at(&q, INV_SHIFT - k) + 1;
        big_div5(&mut q);
        i += 1;
    }
    t
}

/// The low 128 bits of `n >> shift`.
const fn big_bits_at(n: &[u64; LIMBS], shift: usize) -> u128 {
    let limb = shift / 64;
    let bit = (shift % 64) as u32;
    let low = big_word(n, limb) | (big_word(n, limb + 1) << 64);
    if bit == 0 {
        low
    } else {
        (low >> bit) | (big_word(n, limb + 2) << (128 - bit))
    }
}

/// Limb `j` of `n`, zero above the top.
#[expect(
    clippy::indexing_slicing,
    reason = "const evaluation: an out-of-range index fails the build"
)]
const fn big_word(n: &[u64; LIMBS], j: usize) -> u128 {
    if j < LIMBS {
        n[j] as u128
    } else {
        0
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "const evaluation: an out-of-range index fails the build"
)]
const fn big_mul5(n: &mut [u64; LIMBS]) {
    let mut carry = 0u128;
    let mut j = 0;
    while j < LIMBS {
        let v = n[j] as u128 * 5 + carry;
        n[j] = v as u64;
        carry = v >> 64;
        j += 1;
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "const evaluation: an out-of-range index fails the build"
)]
const fn big_div5(n: &mut [u64; LIMBS]) {
    let mut rem = 0u128;
    let mut j = LIMBS;
    while j > 0 {
        j -= 1;
        let v = (rem << 64) | n[j] as u128;
        n[j] = (v / 5) as u64;
        rem = v % 5;
    }
}

/// `⌈log2 5^e⌉` for `e > 0` and 1 for `e = 0`: the bit length of `5^e`
/// (exact for `0 ≤ e ≤ 3528`).
const fn pow5bits(e: i32) -> i32 {
    (((e as u32) * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78_913) >> 18
}

/// `⌊log10 5^e⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732_923) >> 20
}

/// Is `v` (non-zero) divisible by `5^p`?
fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m × mul / 2^j⌋` for `m < 2^55`, a 125-bit `mul` and `64 < j < 192`,
/// from two 64×64→128-bit products.
#[inline]
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `POW5_INV_SPLIT[q]`; `q ≤ 291` for every finite double.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "q = ⌊log10 2^e2⌋ ≤ 291 < 342 for e2 ≤ 969"
)]
fn pow5_inv(q: u32) -> u128 {
    POW5_INV_SPLIT[q as usize]
}

/// `POW5_SPLIT[i]`; `i ≤ 325` for every finite double.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "i = -e2 - q ≤ 325 < 326 for e2 ≥ -1076"
)]
fn pow5(i: u32) -> u128 {
    POW5_SPLIT[i as usize]
}

/// The shortest `(digits, exponent)` such that `digits × 10^exponent`
/// lies in the interval of decimals that parse back to the finite,
/// non-zero double `bits` and is the closest such decimal to it (an exact
/// tie rounds up). Ryū's `d2d`.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    // the value is m2 × 2^e2, with two extra bits for the interval bounds
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // round-half-even parsing: an even mantissa owns its interval bounds
    let accept_bounds = m2 & 1 == 0;
    // the interval is [mm, mp] around mv, all × 2^e2; the lower gap is
    // half as wide at a power of two
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Ryū also tracks whether vr itself is exact, only to round an exact
    // tie to even; rounding every tie up needs no such tracking
    let mut vm_is_trailing_zeros = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITCOUNT + pow5bits(q as i32) - 1;
        let j = (-e2 + q as i32 + k) as u32;
        let mul = pow5_inv(q);
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // at most one of mp, mv and mm is a multiple of 5
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = (q as i32 - k) as u32;
        let mul = pow5(i as u32);
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            if accept_bounds {
                // mm has a trailing zero bit iff the lower gap is full
                vm_is_trailing_zeros = mv - mm == 2;
            } else {
                // mp = mv + 2 has at least one trailing zero bit
                vp -= 1;
            }
        }
    }

    // remove digits while the interval still holds a shorter decimal
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // the rare case of an exact lower bound: it may be the output
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from(
            (vr == vm && (!accept_bounds || !vm_is_trailing_zeros)) || last_removed_digit >= 5,
        )
    } else {
        // the common case: two digits at a time first
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AtomTypeId;

    fn text(push: impl FnOnce(&mut TextWriter)) -> String {
        let mut w = TextWriter::new();
        push(&mut w);
        w.into_string()
    }

    #[test]
    fn integers_and_ids() {
        let written = text(|w| {
            for v in [0, 7, 10, 99, 100, 12345, 100_000_000, u64::MAX] {
                w.push_u64(v);
                w.push_char(' ');
            }
            w.push_i64(i64::MIN);
            w.push_char(' ');
            w.push_i64(-5);
            w.push_char(' ');
            w.push_atom_id(AtomId::new(AtomTypeId(3), 1024));
            w.push_str(" ≥");
        });
        assert_eq!(
            written,
            "0 7 10 99 100 12345 100000000 18446744073709551615 -9223372036854775808 -5 a3.1024 ≥"
        );
    }

    #[test]
    fn float_values_print_integral_ones_with_a_point_zero() {
        let value = |x: f64| text(|w| w.push_value(&Value::Float(x)));
        assert_eq!(value(2.0), "2.0");
        assert_eq!(value(-0.0), "-0.0");
        assert_eq!(value(-7.0), "-7.0");
        assert_eq!(value(999_999_999_999_999.0), "999999999999999.0");
        assert_eq!(value(1e15), "1000000000000000");
        assert_eq!(value(2.5), "2.5");
    }
}
