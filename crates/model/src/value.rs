//! Attribute values and attribute domains.
//!
//! Def. 1 of the paper lets atoms consist of "attributes of various data
//! types". We support the scalar domains a 1989-era engineering database
//! would offer (booleans, integers, reals, strings) plus an explicit `Null`
//! for optional attributes and an `Id` value that can store an [`AtomId`]
//! reference — the latter is used by the propagation function `prop` when a
//! synthetic atom type (e.g. the pair type of the molecule cartesian product)
//! must record which base atoms it was built from.
//!
//! Because the algebra's ω/δ (and the relational degeneration) require *set*
//! semantics, [`Value`] implements total `Eq`, `Ord` and `Hash`: floats
//! compare via `f64::total_cmp` and hash via their bit pattern.

use crate::ids::AtomId;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The domain of an attribute (Fig. 3: "attribute domain").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttrType {
    /// Truth values.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit IEEE-754 reals.
    Float,
    /// UTF-8 text.
    Text,
    /// A stored atom identity (used by propagated/synthetic atom types).
    Id,
}

impl AttrType {
    /// Human-readable domain name, as printed in schema dumps (Fig. 4).
    pub fn name(self) -> &'static str {
        match self {
            AttrType::Bool => "BOOL",
            AttrType::Int => "INT",
            AttrType::Float => "FLOAT",
            AttrType::Text => "TEXT",
            AttrType::Id => "ID",
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single attribute value.
#[derive(Clone, Debug)]
pub enum Value {
    /// The null value; member of every domain.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A text string.
    Text(String),
    /// An atom identity.
    Id(AtomId),
}

impl Value {
    /// The domain this value belongs to; `None` for [`Value::Null`], which is
    /// a member of every domain.
    pub fn attr_type(&self) -> Option<AttrType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(AttrType::Bool),
            Value::Int(_) => Some(AttrType::Int),
            Value::Float(_) => Some(AttrType::Float),
            Value::Text(_) => Some(AttrType::Text),
            Value::Id(_) => Some(AttrType::Id),
        }
    }

    /// Does this value belong to domain `ty`? Null belongs to every domain;
    /// an `Int` is accepted by a `Float` attribute (widening), matching the
    /// behaviour of SQL numeric literals in MQL.
    pub fn conforms_to(&self, ty: AttrType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), AttrType::Float) => true,
            _ => self.attr_type() == Some(ty),
        }
    }

    /// Coerce into domain `ty` where [`Value::conforms_to`] allows it
    /// (widening `Int` → `Float`); otherwise return the value unchanged.
    pub fn coerce(self, ty: AttrType) -> Value {
        match (&self, ty) {
            (Value::Int(i), AttrType::Float) => Value::Float(*i as f64),
            _ => self,
        }
    }

    /// True if this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract a boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a float; integers widen.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract text, if this is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a stored atom id, if this is one.
    pub fn as_id(&self) -> Option<AtomId> {
        match self {
            Value::Id(a) => Some(*a),
            _ => None,
        }
    }

    /// Three-valued-logic comparison used by qualification formulas: returns
    /// `None` when either side is null (unknown), `Some(ordering)` otherwise.
    /// Numeric values compare across `Int`/`Float`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (a, b) => {
                if discriminant_rank(a) == discriminant_rank(b) {
                    Some(a.cmp(b))
                } else {
                    None
                }
            }
        }
    }
}

/// The comparison operators of qualification formulas, applied to the
/// ordering [`Value::sql_cmp`] returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an ordering.
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The SQL-ish token.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

fn discriminant_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Text(_) => 4,
        Value::Id(_) => 5,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order for set semantics: values order first by kind, then by
    /// payload; floats use `total_cmp` so `NaN` has a fixed place.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Id(a), Id(b)) => a.cmp(b),
            (a, b) => discriminant_rank(a).cmp(&discriminant_rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        discriminant_rank(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
            Value::Id(a) => a.hash(state),
        }
    }
}

impl fmt::Display for Value {
    /// The reply text of a value, written by [`crate::text::TextWriter::push_value`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = crate::text::TextWriter::new();
        out.push_value(self);
        f.write_str(&out.into_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<AtomId> for Value {
    fn from(a: AtomId) -> Self {
        Value::Id(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AtomTypeId;

    #[test]
    fn null_conforms_to_everything() {
        for ty in [
            AttrType::Bool,
            AttrType::Int,
            AttrType::Float,
            AttrType::Text,
            AttrType::Id,
        ] {
            assert!(Value::Null.conforms_to(ty));
        }
    }

    #[test]
    fn int_widens_to_float() {
        assert!(Value::Int(3).conforms_to(AttrType::Float));
        assert_eq!(Value::Int(3).coerce(AttrType::Float), Value::Float(3.0));
        assert!(!Value::Float(3.0).conforms_to(AttrType::Int));
    }

    #[test]
    fn sql_cmp_nulls_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).sql_cmp(&Value::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn sql_cmp_incomparable_kinds() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Text("x".into())), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, nan.clone());
    }

    #[test]
    fn hash_eq_consistency_floats() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::Float(1.0));
        s.insert(Value::Float(1.0));
        s.insert(Value::Float(f64::NAN));
        s.insert(Value::Float(f64::NAN));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Text("pn".into()).to_string(), "'pn'");
        assert_eq!(Value::Bool(true).to_string(), "true");
        let a = AtomId::new(AtomTypeId(1), 2);
        assert_eq!(Value::Id(a).to_string(), "@a1.2");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from(1i32), Value::Int(1));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::Text("s".into()));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
    }

    #[test]
    fn kind_ordering_is_stable() {
        // Ordering across kinds must be total and antisymmetric for sorting.
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Float(0.0),
            Value::Text(String::new()),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }
}
