//! Append-only text writer.
//!
//! [`put!`](crate::put!) pushes its pieces — string literals, integers,
//! fixed-width hex — straight into a `String`, with no `core::fmt`
//! machinery per line. Each piece prints exactly what `format!` prints
//! for it: an integer as `{}`, a [`Hex`] as `{:0w$x}`, a [`Fixed2`] as
//! `{:.2}`. The VHDL emitter and the disassembler write through it.
//!
//! ```
//! use ehdl_ebpf::put;
//! use ehdl_ebpf::put::Hex;
//!
//! let mut o = String::new();
//! put!(&mut o, "st", 3_usize, "_r", 7_u8, " <= x\"", Hex(255, 4), "\";\n");
//! assert_eq!(o, "st3_r7 <= x\"00ff\";\n");
//! ```

/// Append every piece to the `&mut String` given first, in order.
#[macro_export]
macro_rules! put {
    ($o:expr $(, $piece:expr)* $(,)?) => {{
        let o: &mut String = $o;
        $( $crate::put::Piece::put($piece, o); )*
    }};
}

/// One piece of a [`put!`](crate::put!) line.
///
/// The small impls are `#[inline]`: the emitter calls them from another
/// crate, and only inlined does a literal's push become a fixed-size copy
/// (out of line, `vhdl::emit` measured ≈ 1.6x slower).
pub trait Piece {
    /// Append this piece to `o`.
    fn put(self, o: &mut String);
}

impl Piece for &str {
    #[inline]
    fn put(self, o: &mut String) {
        o.push_str(self);
    }
}

impl Piece for &String {
    #[inline]
    fn put(self, o: &mut String) {
        o.push_str(self);
    }
}

impl Piece for char {
    #[inline]
    fn put(self, o: &mut String) {
        o.push(self);
    }
}

macro_rules! unsigned_pieces {
    ($($t:ty),*) => {$(
        impl Piece for $t {
            #[inline]
    fn put(self, o: &mut String) {
                decimal(o, self as u64);
            }
        }
    )*};
}
unsigned_pieces!(u8, u16, u32, u64, usize);

macro_rules! signed_pieces {
    ($($t:ty),*) => {$(
        impl Piece for $t {
            #[inline]
    fn put(self, o: &mut String) {
                if self < 0 {
                    o.push('-');
                }
                decimal(o, self.unsigned_abs() as u64);
            }
        }
    )*};
}
signed_pieces!(i8, i16, i32, i64, isize);

#[inline]
fn decimal(o: &mut String, v: u64) {
    // Stage, block and register numbers: most pieces have one or two
    // digits, and pushing them directly is twice as fast as the loop.
    if v < 100 {
        if v >= 10 {
            o.push(char::from(b'0' + (v / 10) as u8));
        }
        o.push(char::from(b'0' + (v % 10) as u8));
    } else {
        digits(o, v);
    }
}

fn digits(o: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    o.extend(buf[i..].iter().map(|&b| char::from(b)));
}

/// Write `p` to `f`: lets a type's `Display` print what its [`Piece`]
/// appends, so the two cannot drift apart.
pub fn fmt(p: impl Piece, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    let mut s = String::new();
    p.put(&mut s);
    f.write_str(&s)
}

/// `.0` in lower-case hex, zero-padded to at least `.1` digits.
#[derive(Debug, Clone, Copy)]
pub struct Hex(pub u64, pub usize);

impl Piece for Hex {
    #[inline]
    fn put(self, o: &mut String) {
        let Hex(v, width) = self;
        let digits = (v.max(1).ilog2() / 4 + 1) as usize;
        o.extend(std::iter::repeat_n('0', width.saturating_sub(digits)));
        o.extend(
            (0..digits)
                .rev()
                .map(|k| char::from(b"0123456789abcdef"[(v >> (4 * k)) as usize & 15])),
        );
    }
}

/// A finite `f64` in `[0, 2^64)` rounded to two decimals, ties to even
/// on its exact binary value, as `{:.2}` rounds.
#[derive(Debug, Clone, Copy)]
pub struct Fixed2(pub f64);

impl Piece for Fixed2 {
    fn put(self, o: &mut String) {
        debug_assert!((0.0..18_446_744_073_709_551_616.0).contains(&self.0), "{}", self.0);
        let bits = self.0.to_bits();
        let (exp, frac) = ((bits >> 52) as i32 & 0x7ff, bits & ((1 << 52) - 1));
        // The value is m · 2^e exactly; a hundred times it, rounded.
        let (m, e) = if exp == 0 { (frac, -1074) } else { (frac | 1 << 52, exp - 1075) };
        let scaled = u128::from(m) * 100;
        let cents = match e {
            0.. => scaled << e,
            -127..0 => {
                let s = e.unsigned_abs();
                let (q, r, half) = (scaled >> s, scaled & ((1 << s) - 1), 1 << (s - 1));
                q + u128::from(r > half || (r == half && q & 1 == 1))
            }
            _ => 0, // below 2^-74: rounds to zero
        };
        decimal(o, (cents / 100) as u64);
        o.push('.');
        let c = (cents % 100) as u8;
        o.push(char::from(b'0' + c / 10));
        o.push(char::from(b'0' + c % 10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn piece(p: impl Piece) -> String {
        let mut o = String::new();
        p.put(&mut o);
        o
    }

    #[test]
    fn integers_print_as_format_does() {
        for v in [0u64, 9, 10, 99, 100, 255, u64::MAX] {
            assert_eq!(piece(v), format!("{v}"));
            assert_eq!(piece(v as usize), format!("{v}"));
        }
        for v in [0i64, 9, 10, 99, 100, 255, -1, -99, -100, i64::MIN, i64::MAX, i64::from(i16::MIN)]
        {
            assert_eq!(piece(v), format!("{v}"));
        }
        assert_eq!(piece(i16::MIN), format!("{}", i16::MIN));
        assert_eq!(piece(i32::MIN), format!("{}", i32::MIN));
        assert_eq!(piece(255u8), "255");
        assert_eq!(piece(u32::MAX), format!("{}", u32::MAX));
    }

    #[test]
    fn hex_pads_like_format() {
        for v in [0u64, 9, 10, 255, 0xfffc, 0x1_0000, u64::MAX] {
            assert_eq!(piece(Hex(v, 4)), format!("{v:04x}"));
            assert_eq!(piece(Hex(v, 16)), format!("{v:016x}"));
        }
        // An `lddw` immediate built from a negative number prints its bits.
        for imm in [-1i64, i64::MIN, i64::from(i16::MIN), 0x0123_4567_89ab_cdef] {
            assert_eq!(piece(Hex(imm as u64, 16)), format!("{imm:016x}"));
        }
        // CSR addresses: index × 4.
        for i in [0usize, 1, 17, 4095, 16_384] {
            assert_eq!(piece(Hex((i * 4) as u64, 4)), format!("{:04x}", i * 4));
        }
    }

    #[test]
    fn fixed2_rounds_like_format() {
        let mut values = vec![0.0, 1.0, 0.125, 0.375, 1.005, 1.015, 0.025, 2.675, 99.995, 1e-300];
        values.extend([f64::MIN_POSITIVE, 5e-324, 1.0 / 3.0, 2.0 / 3.0, 4503599627370495.5]);
        values.extend([9007199254740993.0, 1e19]);
        // Every average a design of up to 200 instructions over up to 80
        // rows can have.
        for insns in 0..200u32 {
            for rows in 1..80u32 {
                values.push(f64::from(insns) / f64::from(rows));
            }
        }
        for v in values {
            assert_eq!(piece(Fixed2(v)), format!("{v:.2}"), "{v:e}");
        }
    }

    #[test]
    fn put_appends_its_pieces_in_order() {
        let mut o = String::from(">");
        let name = String::from("fw");
        put!(&mut o, &name, "_map", 3u32, ' ', -4i16, ' ', Hex(0xab, 4), ' ', Fixed2(1.5));
        assert_eq!(o, ">fw_map3 -4 00ab 1.50");
    }
}
