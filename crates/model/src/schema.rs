//! The database schema `<AT, LT>` of Def. 3.
//!
//! A [`Schema`] owns the atom-type and link-type descriptions and provides
//! the name-resolution functions of the formalism: `atyp(aname)` is
//! [`Schema::atom_type_id`], `nam(at)` is [`Schema::atom_type`] + field
//! access, and the auxiliary `ltyp` used by Def. 6 is
//! [`Schema::link_type_id`].
//!
//! The schema is *growable*: every atom-type operation and every propagation
//! (`prop`, Def. 9) adds derived types, which is how the algebra's closure
//! over the database domain DB* is realized. Base types (declared by the
//! user) and derived types are distinguished by their `derived_from`
//! provenance.

use crate::error::{MadError, Result};
use crate::fxhash::FxHashMap;
use crate::ids::{AtomTypeId, LinkTypeId};
use crate::types::{AtomTypeDef, Cardinality, LinkTypeDef};
use crate::value::AttrType;
use crate::json::{Json, ToJson};
use crate::AttrDef;
use std::fmt;

/// The schema part of a database: atom types `AT` and link types `LT`.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    atom_types: Vec<AtomTypeDef>,
    link_types: Vec<LinkTypeDef>,
    atom_by_name: FxHashMap<String, AtomTypeId>,
    link_by_name: FxHashMap<String, LinkTypeId>,
    /// For each atom type, the link types touching it (the basis of link-type
    /// inheritance and of symmetric navigation). Derived; rebuilt after
    /// decoding rather than encoded.
    links_of_atom: Vec<Vec<LinkTypeId>>,
}

impl ToJson for Schema {
    fn to_json(&self) -> Json {
        // the lookup maps are derived state: only the two type lists travel
        Json::Obj(vec![
            ("atom_types".into(), self.atom_types.to_json()),
            ("link_types".into(), self.link_types.to_json()),
        ])
    }
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Rebuild the derived lookup maps (after deserialization).
    pub fn rebuild_indexes(&mut self) {
        self.atom_by_name = self
            .atom_types
            .iter()
            .enumerate()
            .map(|(i, at)| (at.name.clone(), AtomTypeId(i as u32)))
            .collect();
        self.link_by_name = self
            .link_types
            .iter()
            .enumerate()
            .map(|(i, lt)| (lt.name.clone(), LinkTypeId(i as u32)))
            .collect();
        self.links_of_atom = vec![Vec::new(); self.atom_types.len()];
        for (i, lt) in self.link_types.iter().enumerate() {
            let id = LinkTypeId(i as u32);
            self.links_of_atom[lt.ends[0].0 as usize].push(id);
            if lt.ends[0] != lt.ends[1] {
                self.links_of_atom[lt.ends[1].0 as usize].push(id);
            }
        }
    }

    /// Add an atom-type description; the name must be fresh.
    pub fn add_atom_type(&mut self, def: AtomTypeDef) -> Result<AtomTypeId> {
        if self.atom_by_name.contains_key(&def.name) {
            return Err(MadError::duplicate("atom type", &def.name));
        }
        let mut seen: Vec<&str> = Vec::with_capacity(def.attrs.len());
        for a in &def.attrs {
            if seen.contains(&a.name.as_str()) {
                return Err(MadError::duplicate("attribute", &a.name));
            }
            seen.push(&a.name);
        }
        let id = AtomTypeId(self.atom_types.len() as u32);
        self.atom_by_name.insert(def.name.clone(), id);
        self.atom_types.push(def);
        self.links_of_atom.push(Vec::new());
        Ok(id)
    }

    /// Add a link-type description; the name must be fresh and both endpoint
    /// atom types must exist.
    pub fn add_link_type(&mut self, def: LinkTypeDef) -> Result<LinkTypeId> {
        if self.link_by_name.contains_key(&def.name) {
            return Err(MadError::duplicate("link type", &def.name));
        }
        for end in def.ends {
            if end.0 as usize >= self.atom_types.len() {
                return Err(MadError::unknown("atom type id", format!("{end:?}")));
            }
        }
        let id = LinkTypeId(self.link_types.len() as u32);
        self.link_by_name.insert(def.name.clone(), id);
        self.links_of_atom[def.ends[0].0 as usize].push(id);
        if def.ends[0] != def.ends[1] {
            self.links_of_atom[def.ends[1].0 as usize].push(id);
        }
        self.link_types.push(def);
        Ok(id)
    }

    /// `atyp(aname)`: resolve an atom-type name.
    pub fn atom_type_id(&self, name: &str) -> Result<AtomTypeId> {
        self.atom_by_name
            .get(name)
            .copied()
            .ok_or_else(|| MadError::unknown("atom type", name))
    }

    /// `ltyp(lname)`: resolve a link-type name.
    pub fn link_type_id(&self, name: &str) -> Result<LinkTypeId> {
        self.link_by_name
            .get(name)
            .copied()
            .ok_or_else(|| MadError::unknown("link type", name))
    }

    /// The description of atom type `id`.
    pub fn atom_type(&self, id: AtomTypeId) -> &AtomTypeDef {
        &self.atom_types[id.0 as usize]
    }

    /// The description of link type `id`.
    pub fn link_type(&self, id: LinkTypeId) -> &LinkTypeDef {
        &self.link_types[id.0 as usize]
    }

    /// All atom types with their ids.
    pub fn atom_types(&self) -> impl Iterator<Item = (AtomTypeId, &AtomTypeDef)> {
        self.atom_types
            .iter()
            .enumerate()
            .map(|(i, d)| (AtomTypeId(i as u32), d))
    }

    /// All link types with their ids.
    pub fn link_types(&self) -> impl Iterator<Item = (LinkTypeId, &LinkTypeDef)> {
        self.link_types
            .iter()
            .enumerate()
            .map(|(i, d)| (LinkTypeId(i as u32), d))
    }

    /// Link types touching atom type `ty` (incident edges of the schema
    /// graph — the "nondirectional graph" of §2).
    pub fn link_types_of(&self, ty: AtomTypeId) -> &[LinkTypeId] {
        &self.links_of_atom[ty.0 as usize]
    }

    /// Link types connecting `a` and `b` (in either orientation). Several
    /// may exist — Def. 2 explicitly allows this.
    pub fn link_types_between(&self, a: AtomTypeId, b: AtomTypeId) -> Vec<LinkTypeId> {
        self.links_of_atom[a.0 as usize]
            .iter()
            .copied()
            .filter(|&lt| {
                let d = self.link_type(lt);
                (d.ends[0] == a && d.ends[1] == b) || (d.ends[0] == b && d.ends[1] == a)
            })
            .collect()
    }

    /// Number of atom types.
    pub fn atom_type_count(&self) -> usize {
        self.atom_types.len()
    }

    /// Number of link types.
    pub fn link_type_count(&self) -> usize {
        self.link_types.len()
    }

    /// Generate a fresh name with the given prefix (an element of the naming
    /// set `N` not yet used). Used by the algebra operators, which must give
    /// every result type a new name.
    pub fn fresh_atom_type_name(&self, prefix: &str) -> String {
        if !self.atom_by_name.contains_key(prefix) {
            return prefix.to_owned();
        }
        let mut i = 1usize;
        loop {
            let candidate = format!("{prefix}#{i}");
            if !self.atom_by_name.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    /// Generate a fresh link-type name with the given prefix.
    pub fn fresh_link_type_name(&self, prefix: &str) -> String {
        if !self.link_by_name.contains_key(prefix) {
            return prefix.to_owned();
        }
        let mut i = 1usize;
        loop {
            let candidate = format!("{prefix}#{i}");
            if !self.link_by_name.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    /// Render the schema in the style of Fig. 4 (the "database definition"
    /// part, without occurrences).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("atom types\n");
        for (_, at) in self.atom_types() {
            out.push_str("  ");
            out.push_str(&at.to_string());
            if let Some(src) = &at.derived_from {
                out.push_str(&format!("   -- derived: {src}"));
            }
            out.push('\n');
        }
        out.push_str("link types\n");
        for (_, lt) in self.link_types() {
            let a = &self.atom_type(lt.ends[0]).name;
            let b = &self.atom_type(lt.ends[1]).name;
            out.push_str(&format!(
                "  {} = <{}, {{{}, {}}}> {} {}",
                lt.name, lt.name, a, b, lt.cards[0], lt.cards[1]
            ));
            if let Some(src) = &lt.derived_from {
                out.push_str(&format!("   -- derived: {src}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Fluent builder for schemas, used by fixtures and tests.
///
/// ```
/// use mad_model::{SchemaBuilder, AttrType, Cardinality};
/// let schema = SchemaBuilder::new()
///     .atom_type("state", &[("sname", AttrType::Text), ("pop", AttrType::Int)])
///     .atom_type("area", &[("aname", AttrType::Text)])
///     .link_type("state-area", "state", "area")
///     .build()
///     .unwrap();
/// assert_eq!(schema.atom_type_count(), 2);
/// ```
#[derive(Default)]
pub struct SchemaBuilder {
    atoms: Vec<AtomTypeDef>,
    links: Vec<(String, String, String, Cardinality, Cardinality)>,
}

impl SchemaBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        SchemaBuilder::default()
    }

    /// Declare an atom type with `(attr name, attr type)` pairs.
    pub fn atom_type(mut self, name: &str, attrs: &[(&str, AttrType)]) -> Self {
        self.atoms.push(AtomTypeDef::new(
            name,
            attrs
                .iter()
                .map(|(n, t)| AttrDef::new(*n, *t))
                .collect(),
        ));
        self
    }

    /// Declare an unrestricted (n:m) link type between two named atom types.
    pub fn link_type(self, name: &str, a: &str, b: &str) -> Self {
        self.link_type_card(name, a, Cardinality::MANY, b, Cardinality::MANY)
    }

    /// Declare a link type with explicit per-side cardinalities.
    pub fn link_type_card(
        mut self,
        name: &str,
        a: &str,
        ca: Cardinality,
        b: &str,
        cb: Cardinality,
    ) -> Self {
        self.links
            .push((name.to_owned(), a.to_owned(), b.to_owned(), ca, cb));
        self
    }

    /// Resolve names and produce the [`Schema`].
    pub fn build(self) -> Result<Schema> {
        let mut schema = Schema::new();
        for at in self.atoms {
            schema.add_atom_type(at)?;
        }
        for (name, a, b, ca, cb) in self.links {
            let a = schema.atom_type_id(&a)?;
            let b = schema.atom_type_id(&b)?;
            schema.add_link_type(LinkTypeDef::with_cards(name, a, ca, b, cb))?;
        }
        Ok(schema)
    }
}

/// Helper: attribute list construction from `(name, type)` pairs.
pub fn attrs(pairs: &[(&str, AttrType)]) -> Vec<AttrDef> {
    pairs.iter().map(|(n, t)| AttrDef::new(*n, *t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo_schema() -> Schema {
        SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text), ("hectare", AttrType::Float)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .atom_type("edge", &[("eid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .link_type("area-edge", "area", "edge")
            .build()
            .unwrap()
    }

    #[test]
    fn resolves_names() {
        let s = geo_schema();
        let state = s.atom_type_id("state").unwrap();
        assert_eq!(s.atom_type(state).name, "state");
        let sa = s.link_type_id("state-area").unwrap();
        assert_eq!(s.link_type(sa).ends[0], state);
    }

    #[test]
    fn unknown_names_error() {
        let s = geo_schema();
        assert!(s.atom_type_id("city").is_err());
        assert!(s.link_type_id("city-state").is_err());
    }

    #[test]
    fn duplicate_atom_type_rejected() {
        let mut s = geo_schema();
        let err = s
            .add_atom_type(AtomTypeDef::new("state", vec![]))
            .unwrap_err();
        assert!(matches!(err, MadError::DuplicateName { .. }));
    }

    #[test]
    fn duplicate_attr_rejected() {
        let mut s = Schema::new();
        let err = s
            .add_atom_type(AtomTypeDef::new(
                "x",
                vec![
                    AttrDef::new("a", AttrType::Int),
                    AttrDef::new("a", AttrType::Text),
                ],
            ))
            .unwrap_err();
        assert!(matches!(err, MadError::DuplicateName { .. }));
    }

    #[test]
    fn duplicate_link_type_rejected() {
        let mut s = geo_schema();
        let a = s.atom_type_id("state").unwrap();
        let b = s.atom_type_id("area").unwrap();
        let err = s
            .add_link_type(LinkTypeDef::new("state-area", a, b))
            .unwrap_err();
        assert!(matches!(err, MadError::DuplicateName { .. }));
    }

    #[test]
    fn link_type_unknown_endpoint_rejected() {
        let mut s = Schema::new();
        let err = s
            .add_link_type(LinkTypeDef::new("x", AtomTypeId(0), AtomTypeId(1)))
            .unwrap_err();
        assert!(matches!(err, MadError::UnknownName { .. }));
    }

    #[test]
    fn incident_link_types() {
        let s = geo_schema();
        let area = s.atom_type_id("area").unwrap();
        let names: Vec<&str> = s
            .link_types_of(area)
            .iter()
            .map(|&lt| s.link_type(lt).name.as_str())
            .collect();
        assert_eq!(names, vec!["state-area", "area-edge"]);
    }

    #[test]
    fn link_types_between_both_orientations() {
        let s = geo_schema();
        let state = s.atom_type_id("state").unwrap();
        let area = s.atom_type_id("area").unwrap();
        assert_eq!(s.link_types_between(state, area).len(), 1);
        assert_eq!(s.link_types_between(area, state).len(), 1);
        let edge = s.atom_type_id("edge").unwrap();
        assert_eq!(s.link_types_between(state, edge).len(), 0);
    }

    #[test]
    fn multiple_link_types_between_same_pair() {
        let s = SchemaBuilder::new()
            .atom_type("a", &[("x", AttrType::Int)])
            .atom_type("b", &[("y", AttrType::Int)])
            .link_type("l1", "a", "b")
            .link_type("l2", "a", "b")
            .build()
            .unwrap();
        let a = s.atom_type_id("a").unwrap();
        let b = s.atom_type_id("b").unwrap();
        assert_eq!(s.link_types_between(a, b).len(), 2);
    }

    #[test]
    fn reflexive_link_type_registered_once_per_atom() {
        let s = SchemaBuilder::new()
            .atom_type("parts", &[("pid", AttrType::Int)])
            .link_type("composition", "parts", "parts")
            .build()
            .unwrap();
        let parts = s.atom_type_id("parts").unwrap();
        assert_eq!(s.link_types_of(parts).len(), 1);
        assert!(s.link_type(s.link_type_id("composition").unwrap()).is_reflexive());
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let s = geo_schema();
        assert_eq!(s.fresh_atom_type_name("border"), "border");
        assert_eq!(s.fresh_atom_type_name("state"), "state#1");
        assert_eq!(s.fresh_link_type_name("state-area"), "state-area#1");
    }

    #[test]
    fn render_mentions_all_types() {
        let s = geo_schema();
        let r = s.render();
        for name in ["state", "area", "edge", "state-area", "area-edge"] {
            assert!(r.contains(name), "missing {name} in:\n{r}");
        }
    }

    #[test]
    fn rebuild_indexes_after_clear() {
        let mut s = geo_schema();
        // Simulate a deserialized schema: wipe the skip-serialized maps.
        s.atom_by_name.clear();
        s.link_by_name.clear();
        s.links_of_atom.clear();
        s.rebuild_indexes();
        assert!(s.atom_type_id("state").is_ok());
        assert_eq!(s.link_types_of(s.atom_type_id("area").unwrap()).len(), 2);
    }
}
