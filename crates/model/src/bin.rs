#![deny(clippy::as_conversions, clippy::cast_possible_truncation)]
//! Stable binary encoding for WAL records and snapshots.
//!
//! Like [`crate::json`], this is a hand-rolled, dependency-free shim in
//! place of `serde`/`bincode` (the build environment has no crate
//! registry). Unlike JSON it is a *wire format*: the write-ahead log and
//! the binary database snapshot persist these bytes across process
//! restarts, so the encoding must stay **stable** — append new tags, never
//! renumber existing ones.
//!
//! Layout conventions:
//!
//! * all integers are little-endian fixed width (`u8`/`u32`/`u64`/`i64`);
//! * floats travel as their IEEE-754 bit pattern (`f64::to_bits`), so
//!   `NaN` payloads survive a round-trip bit-identically;
//! * strings are a `u32` byte length followed by UTF-8 bytes;
//! * sequences are a `u32` element count followed by the elements;
//! * enums are a `u8` tag followed by the variant payload.
//!
//! Everything decodable implements [`BinDecode`]; decoding is
//! bounds-checked and returns [`MadError::Codec`] on truncated or
//! malformed input — it never panics on untrusted bytes (the WAL recovery
//! path feeds it torn tails).

use crate::error::{MadError, Result};
use crate::ids::{AtomId, AtomTypeId, LinkTypeId};
use crate::schema::Schema;
use crate::types::{AtomTypeDef, AttrDef, Cardinality, LinkTypeDef};
use crate::value::{AttrType, Value};

/// Types that can append their stable binary form to a buffer.
pub trait BinEncode {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Types that can be decoded from the [`BinEncode`] form.
pub trait BinDecode: Sized {
    /// Decode one value from the reader, advancing its position.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Convenience: decode from a buffer, requiring it to be consumed
    /// exactly.
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// A bounds-checked cursor over an encoded byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte was consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(MadError::Codec {
                detail: format!("{} trailing bytes after decoded value", self.remaining()),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(MadError::Codec {
                detail: format!(
                    "truncated input: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.remaining()
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` stored as its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = usize_of_u32(self.u32()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| MadError::Codec {
            detail: format!("invalid UTF-8 in string: {e}"),
        })
    }

    /// Read a length-prefixed byte blob (the counterpart of [`put_blob`]).
    pub fn blob(&mut self) -> Result<Vec<u8>> {
        let len = usize_of_u32(self.u32()?);
        Ok(self.take(len)?.to_vec())
    }

    /// Read a sequence length, sanity-capped against the remaining input so
    /// corrupt lengths cannot trigger huge allocations.
    pub fn seq_len(&mut self) -> Result<usize> {
        let n = usize_of_u32(self.u32()?);
        // every element occupies at least one byte in all our encodings
        if n > self.remaining() {
            return Err(MadError::Codec {
                detail: format!(
                    "implausible sequence length {n} with {} bytes remaining",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }
}

/// The `u32` length prefix for an in-memory length. A value this process
/// holds in memory but cannot express on the wire is a logic error
/// upstream; a silently wrapped prefix would corrupt every later byte of
/// the stream, so this fails loudly instead.
pub fn len_u32(n: usize) -> u32 {
    // check: allow(panic, "a >= 4 GiB in-memory value cannot round-trip; wrapping the length prefix would corrupt the stream, so fail loudly")
    u32::try_from(n).expect("value length exceeds the u32 wire prefix")
}

/// Widen a wire `u32` to an in-memory `usize`. Lossless on every target
/// with at least 32-bit pointers; on a (hypothetical) smaller target the
/// saturated value fails the reader's bounds checks instead of wrapping.
pub fn usize_of_u32(v: u32) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Widen an in-memory count to the wire's `u64`. Lossless on every
/// supported target (`usize` is at most 64 bits).
pub fn u64_of_usize(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Narrow a wire `u64` count to an in-memory `usize`, surfacing
/// [`MadError::Codec`] when the value does not fit this target instead of
/// silently truncating.
pub fn usize_of_u64(v: u64) -> Result<usize> {
    usize::try_from(v).map_err(|_| MadError::Codec {
        detail: format!("count {v} overflows usize on this target"),
    })
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, len_u32(s.len()));
    out.extend_from_slice(s.as_bytes());
}

/// Append a length-prefixed byte blob (opaque nested payloads).
pub fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, len_u32(b.len()));
    out.extend_from_slice(b);
}

impl BinEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
}

impl BinDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.str()
    }
}

impl<T: BinEncode> BinEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, len_u32(self.len()));
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: BinDecode> BinDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: BinEncode, B: BinEncode> BinEncode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: BinDecode, B: BinDecode> BinDecode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl BinEncode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
}

impl BinDecode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.u32()
    }
}

impl BinEncode for AtomTypeId {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0);
    }
}

impl BinDecode for AtomTypeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(AtomTypeId(r.u32()?))
    }
}

impl BinEncode for LinkTypeId {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0);
    }
}

impl BinDecode for LinkTypeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(LinkTypeId(r.u32()?))
    }
}

impl BinEncode for AtomId {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.ty.0);
        put_u32(out, self.slot);
    }
}

impl BinDecode for AtomId {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(AtomId::new(AtomTypeId(r.u32()?), r.u32()?))
    }
}

impl BinEncode for AttrType {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            AttrType::Bool => 0,
            AttrType::Int => 1,
            AttrType::Float => 2,
            AttrType::Text => 3,
            AttrType::Id => 4,
        });
    }
}

impl BinDecode for AttrType {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.u8()? {
            0 => AttrType::Bool,
            1 => AttrType::Int,
            2 => AttrType::Float,
            3 => AttrType::Text,
            4 => AttrType::Id,
            t => {
                return Err(MadError::Codec {
                    detail: format!("unknown AttrType tag {t}"),
                })
            }
        })
    }
}

impl BinEncode for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(x) => {
                out.push(3);
                put_u64(out, x.to_bits());
            }
            Value::Text(s) => {
                out.push(4);
                put_str(out, s);
            }
            Value::Id(a) => {
                out.push(5);
                a.encode(out);
            }
        }
    }
}

impl BinDecode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.u8()? {
            0 => Value::Null,
            1 => Value::Bool(match r.u8()? {
                0 => false,
                1 => true,
                b => {
                    return Err(MadError::Codec {
                        detail: format!("invalid bool byte {b}"),
                    })
                }
            }),
            2 => Value::Int(r.i64()?),
            3 => Value::Float(r.f64()?),
            4 => Value::Text(r.str()?),
            5 => Value::Id(AtomId::decode(r)?),
            t => {
                return Err(MadError::Codec {
                    detail: format!("unknown Value tag {t}"),
                })
            }
        })
    }
}

impl BinEncode for AttrDef {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        self.ty.encode(out);
    }
}

impl BinDecode for AttrDef {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(AttrDef {
            name: r.str()?,
            ty: AttrType::decode(r)?,
        })
    }
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn opt_str(r: &mut Reader<'_>) -> Result<Option<String>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.str()?)),
        t => Err(MadError::Codec {
            detail: format!("invalid Option tag {t}"),
        }),
    }
}

impl BinEncode for AtomTypeDef {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        self.attrs.encode(out);
        put_opt_str(out, &self.derived_from);
    }
}

impl BinDecode for AtomTypeDef {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(AtomTypeDef {
            name: r.str()?,
            attrs: Vec::decode(r)?,
            derived_from: opt_str(r)?,
        })
    }
}

impl BinEncode for Cardinality {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.min);
        match self.max {
            None => out.push(0),
            Some(m) => {
                out.push(1);
                put_u32(out, m);
            }
        }
    }
}

impl BinDecode for Cardinality {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let min = r.u32()?;
        let max = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            t => {
                return Err(MadError::Codec {
                    detail: format!("invalid Option tag {t}"),
                })
            }
        };
        Ok(Cardinality { min, max })
    }
}

impl BinEncode for LinkTypeDef {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        self.ends[0].encode(out);
        self.ends[1].encode(out);
        self.cards[0].encode(out);
        self.cards[1].encode(out);
        put_opt_str(out, &self.derived_from);
    }
}

impl BinDecode for LinkTypeDef {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(LinkTypeDef {
            name: r.str()?,
            ends: [AtomTypeId::decode(r)?, AtomTypeId::decode(r)?],
            cards: [Cardinality::decode(r)?, Cardinality::decode(r)?],
            derived_from: opt_str(r)?,
        })
    }
}

impl BinEncode for Schema {
    fn encode(&self, out: &mut Vec<u8>) {
        // only the two type lists travel; the lookup maps are derived state
        put_u32(out, len_u32(self.atom_type_count()));
        for (_, at) in self.atom_types() {
            at.encode(out);
        }
        put_u32(out, len_u32(self.link_type_count()));
        for (_, lt) in self.link_types() {
            lt.encode(out);
        }
    }
}

impl BinDecode for Schema {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // rebuild through the validating API, so name collisions and bad
        // endpoint ids in corrupt input surface as errors, not panics
        let mut schema = Schema::new();
        for _ in 0..r.seq_len()? {
            schema.add_atom_type(AtomTypeDef::decode(r)?)?;
        }
        for _ in 0..r.seq_len()? {
            schema.add_link_type(LinkTypeDef::decode(r)?)?;
        }
        Ok(schema)
    }
}

// ---------------------------------------------------------------------
// Binary statement results (the network wire's `BinResult` frame payload)
// ---------------------------------------------------------------------

/// One node of a binary-encoded result structure: alias, atom-type name
/// and the attribute schema its tuples decode against. Self-describing —
/// a client needs no schema handshake to interpret the tuples.
#[derive(Clone, Debug, PartialEq)]
pub struct BinNode {
    /// The node's alias in the defining structure.
    pub alias: String,
    /// The underlying atom-type name.
    pub atom_type: String,
    /// Attribute definitions, in tuple order.
    pub attrs: Vec<AttrDef>,
}

impl BinEncode for BinNode {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.alias);
        put_str(out, &self.atom_type);
        self.attrs.encode(out);
    }
}

impl BinDecode for BinNode {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(BinNode {
            alias: r.str()?,
            atom_type: r.str()?,
            attrs: Vec::decode(r)?,
        })
    }
}

/// One atom occurrence inside a binary-encoded molecule: which structure
/// node it instantiates, its id, and its attribute tuple.
#[derive(Clone, Debug, PartialEq)]
pub struct BinAtom {
    /// Index into [`BinMolecules::nodes`].
    pub node: u32,
    /// The atom's id.
    pub id: AtomId,
    /// The attribute values, in [`BinNode::attrs`] order.
    pub tuple: Vec<Value>,
}

impl BinEncode for BinAtom {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.node);
        self.id.encode(out);
        self.tuple.encode(out);
    }
}

impl BinDecode for BinAtom {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(BinAtom {
            node: r.u32()?,
            id: AtomId::decode(r)?,
            tuple: Vec::decode(r)?,
        })
    }
}

/// A molecule set in wire form: the derived type's name, its structure
/// nodes, and each molecule as a pre-order list of atoms.
#[derive(Clone, Debug, PartialEq)]
pub struct BinMolecules {
    /// The molecule-type name.
    pub name: String,
    /// The structure's nodes.
    pub nodes: Vec<BinNode>,
    /// Each molecule: atoms in structure pre-order.
    pub molecules: Vec<Vec<BinAtom>>,
}

impl BinEncode for BinMolecules {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        self.nodes.encode(out);
        self.molecules.encode(out);
    }
}

impl BinDecode for BinMolecules {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let v = BinMolecules {
            name: r.str()?,
            nodes: Vec::decode(r)?,
            molecules: Vec::decode(r)?,
        };
        let node_count = len_u32(v.nodes.len());
        for m in &v.molecules {
            for a in m {
                if a.node >= node_count {
                    return Err(MadError::Codec {
                        detail: format!(
                            "atom references node {} of {} in binary molecule set",
                            a.node, node_count
                        ),
                    });
                }
            }
        }
        Ok(v)
    }
}

/// A statement result in wire form. Molecule sets travel structurally
/// (tag 1); every other result kind is forwarded as its rendered text
/// (tag 0) — new tags may be appended, never renumbered.
#[derive(Clone, Debug, PartialEq)]
pub enum BinResult {
    /// A pre-rendered text result.
    Text(String),
    /// A structurally-encoded molecule set.
    Molecules(BinMolecules),
}

impl BinEncode for BinResult {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BinResult::Text(s) => {
                out.push(0);
                put_str(out, s);
            }
            BinResult::Molecules(m) => {
                out.push(1);
                m.encode(out);
            }
        }
    }
}

impl BinDecode for BinResult {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.u8()? {
            0 => BinResult::Text(r.str()?),
            1 => BinResult::Molecules(BinMolecules::decode(r)?),
            t => {
                return Err(MadError::Codec {
                    detail: format!("unknown BinResult tag {t}"),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn roundtrip<T: BinEncode + BinDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Float(-0.0));
        roundtrip(Value::Text("ﬀ — unicode".to_owned()));
        roundtrip(Value::Id(AtomId::new(AtomTypeId(7), u32::MAX)));
    }

    #[test]
    fn nan_survives_bit_identically() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let bytes = Value::Float(weird).to_bytes();
        let Value::Float(back) = Value::from_bytes(&bytes).unwrap() else {
            panic!()
        };
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn tuples_and_vecs_roundtrip() {
        roundtrip(vec![Value::Int(1), Value::Null, Value::Text("x".into())]);
        roundtrip((AtomId::new(AtomTypeId(1), 2), "pair".to_owned()));
    }

    #[test]
    fn schema_roundtrip_rebuilds_lookups() {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type_card(
                "state-area",
                "state",
                Cardinality::MANY,
                "area",
                Cardinality::AT_MOST_ONE,
            )
            .build()
            .unwrap();
        let back = Schema::from_bytes(&schema.to_bytes()).unwrap();
        assert!(back.atom_type_id("state").is_ok());
        let sa = back.link_type_id("state-area").unwrap();
        assert_eq!(back.link_type(sa).cards[1], Cardinality::AT_MOST_ONE);
        assert_eq!(back.link_types_of(back.atom_type_id("area").unwrap()), &[sa]);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let bytes = Value::Text("hello".into()).to_bytes();
        for cut in 0..bytes.len() {
            let err = Value::from_bytes(&bytes[..cut]).err();
            assert!(err.is_some(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Value::Int(5).to_bytes();
        bytes.push(0);
        assert!(matches!(
            Value::from_bytes(&bytes),
            Err(MadError::Codec { .. })
        ));
    }

    #[test]
    fn implausible_length_rejected() {
        // a Vec claiming u32::MAX elements with a 4-byte body
        let bytes = u32::MAX.to_le_bytes().to_vec();
        assert!(Vec::<Value>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Value::from_bytes(&[9]).is_err());
        assert!(AttrType::from_bytes(&[200]).is_err());
    }

    #[test]
    fn oversized_declared_lengths_rejected_before_allocation() {
        // a string prefix claiming u32::MAX bytes over a 2-byte body must
        // fail in the bounds check, not allocate 4 GiB
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"hi");
        assert!(matches!(
            String::from_bytes(&bytes),
            Err(MadError::Codec { .. })
        ));
        // same for a sequence count (seq_len's plausibility cap)
        let bytes = 0x1000_0000u32.to_le_bytes().to_vec();
        assert!(matches!(
            Vec::<Value>::from_bytes(&bytes),
            Err(MadError::Codec { .. })
        ));
    }

    #[test]
    fn bin_result_roundtrip() {
        roundtrip(BinResult::Text("updated 1 atom(s)\n".to_owned()));
        roundtrip(BinResult::Molecules(BinMolecules {
            name: "result".to_owned(),
            nodes: vec![BinNode {
                alias: "state".to_owned(),
                atom_type: "state".to_owned(),
                attrs: vec![AttrDef {
                    name: "sname".to_owned(),
                    ty: AttrType::Text,
                }],
            }],
            molecules: vec![vec![BinAtom {
                node: 0,
                id: AtomId::new(AtomTypeId(0), 3),
                tuple: vec![Value::Text("SP".to_owned())],
            }]],
        }));
    }

    #[test]
    fn bin_result_rejects_out_of_range_node_index() {
        let bad = BinResult::Molecules(BinMolecules {
            name: "r".to_owned(),
            nodes: vec![],
            molecules: vec![vec![BinAtom {
                node: 7,
                id: AtomId::new(AtomTypeId(0), 0),
                tuple: vec![],
            }]],
        });
        assert!(matches!(
            BinResult::from_bytes(&bad.to_bytes()),
            Err(MadError::Codec { .. })
        ));
    }

    #[test]
    fn checked_width_helpers() {
        assert_eq!(len_u32(0), 0);
        assert_eq!(len_u32(4096), 4096);
        assert_eq!(usize_of_u32(u32::MAX), usize::try_from(u32::MAX).unwrap());
        assert_eq!(u64_of_usize(17), 17);
        assert_eq!(usize_of_u64(42).unwrap(), 42);
        #[cfg(target_pointer_width = "64")]
        assert_eq!(usize_of_u64(u64::MAX).unwrap(), usize::try_from(u64::MAX).unwrap());
    }
}
