//! Database snapshots: full images of a database (schema + occurrence).
//!
//! Fig. 4 of the paper presents GEO_DB as a *formal specification* — schema
//! and occurrence written down together. A [`DatabaseSnapshot`] is the
//! machine-readable analogue. Its binary form is the WAL's bootstrap image
//! and what replication ships to a new standby; its JSON rendering is the
//! human-readable equality image tests compare databases by.

use crate::database::Database;
use crate::index::IndexKind;
use mad_model::bin::{BinDecode, BinEncode, Reader};
use mad_model::json::{Json, ToJson};
use mad_model::{AtomId, MadError, Result, Schema, Value};

/// A serializable image of a [`Database`].
#[derive(Clone, Debug)]
pub struct DatabaseSnapshot {
    /// The schema (atom-type and link-type descriptions).
    pub schema: Schema,
    /// Per atom type: the list of `(slot, tuple)` pairs of live atoms.
    pub atoms: Vec<Vec<(u32, Vec<Value>)>>,
    /// Per link type: the list of oriented `(side0, side1)` pairs.
    pub links: Vec<Vec<(AtomId, AtomId)>>,
    /// Indexes to re-create: `(atom type name, attribute name, ordered?)`.
    pub indexes: Vec<(String, String, bool)>,
}

impl ToJson for DatabaseSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), self.schema.to_json()),
            ("atoms".into(), self.atoms.to_json()),
            ("links".into(), self.links.to_json()),
            ("indexes".into(), self.indexes.to_json()),
        ])
    }
}

impl BinEncode for DatabaseSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema.encode(out);
        self.atoms.encode(out);
        self.links.encode(out);
        mad_model::bin::put_u32(out, self.indexes.len() as u32);
        for (ty, attr, ordered) in &self.indexes {
            ty.encode(out);
            attr.encode(out);
            out.push(*ordered as u8);
        }
    }
}

impl BinDecode for DatabaseSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let schema = Schema::decode(r)?;
        let atoms = Vec::decode(r)?;
        let links = Vec::decode(r)?;
        let n = r.seq_len()?;
        let mut indexes = Vec::with_capacity(n);
        for _ in 0..n {
            let ty = r.str()?;
            let attr = r.str()?;
            let ordered = r.u8()? != 0;
            indexes.push((ty, attr, ordered));
        }
        Ok(DatabaseSnapshot {
            schema,
            atoms,
            links,
            indexes,
        })
    }
}

impl DatabaseSnapshot {
    /// Render to a JSON string (compact).
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Capture the state of `db`.
    pub fn capture(db: &Database) -> Self {
        let schema = db.schema().clone();
        let atoms = schema
            .atom_types()
            .map(|(ty, _)| {
                db.atoms_of(ty)
                    .map(|(id, tuple)| (id.slot, tuple.to_vec()))
                    .collect()
            })
            .collect();
        let links = schema
            .link_types()
            .map(|(lt, _)| db.links_of(lt).collect())
            .collect();
        // Note: index kinds are re-created from this listing; the capture
        // relies on Database exposing which (ty, attr) pairs are indexed.
        let mut indexes = Vec::new();
        for (ty, def) in schema.atom_types() {
            for (attr, adef) in def.attrs.iter().enumerate() {
                if db.has_index(ty, attr) {
                    // We cannot see the kind through the public API; ordered
                    // is the safe superset (supports eq + range).
                    indexes.push((def.name.clone(), adef.name.clone(), true));
                }
            }
        }
        DatabaseSnapshot {
            schema,
            atoms,
            links,
            indexes,
        }
    }

    /// Rebuild a [`Database`] from this snapshot. Slot numbers are
    /// preserved, so stored [`AtomId`]s (e.g. in `Id`-valued attributes)
    /// stay valid.
    pub fn restore(mut self) -> Result<Database> {
        self.schema.rebuild_indexes();
        let mut db = Database::new(self.schema.clone());
        for (ty, _) in self.schema.atom_types() {
            let rows = std::mem::take(&mut self.atoms[ty.0 as usize]);
            let mut expected_slot = 0u32;
            for (slot, tuple) in rows {
                // Re-create tombstoned gaps so that slots line up.
                while expected_slot < slot {
                    let def = self.schema.atom_type(ty);
                    let filler = vec![Value::Null; def.arity()];
                    let id = db.insert_atom(ty, filler)?;
                    db.delete_atom(id)?;
                    expected_slot += 1;
                }
                let id = db.insert_atom(ty, tuple)?;
                if id.slot != slot {
                    return Err(MadError::Snapshot {
                        detail: format!("slot mismatch: expected {slot}, got {}", id.slot),
                    });
                }
                expected_slot = slot + 1;
            }
        }
        for (lt, _) in self.schema.link_types() {
            for (a, b) in std::mem::take(&mut self.links[lt.0 as usize]) {
                db.connect(lt, a, b)?;
            }
        }
        for (ty_name, attr_name, ordered) in &self.indexes {
            let ty = db.schema().atom_type_id(ty_name)?;
            let kind = if *ordered {
                IndexKind::Ordered
            } else {
                IndexKind::Hash
            };
            db.create_index(ty, attr_name, kind)?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_model::{AttrType, SchemaBuilder};

    fn sample_db() -> Database {
        let schema = SchemaBuilder::new()
            .atom_type("state", &[("sname", AttrType::Text)])
            .atom_type("area", &[("aid", AttrType::Int)])
            .link_type("state-area", "state", "area")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let state = db.schema().atom_type_id("state").unwrap();
        let area = db.schema().atom_type_id("area").unwrap();
        let sa = db.schema().link_type_id("state-area").unwrap();
        let s1 = db.insert_atom(state, vec![Value::from("SP")]).unwrap();
        let s2 = db.insert_atom(state, vec![Value::from("MG")]).unwrap();
        let a1 = db.insert_atom(area, vec![Value::from(1)]).unwrap();
        db.connect(sa, s1, a1).unwrap();
        db.connect(sa, s2, a1).unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample_db();
        let snap = DatabaseSnapshot::capture(&db);
        let db2 = snap.restore().unwrap();
        let state = db2.schema().atom_type_id("state").unwrap();
        let sa = db2.schema().link_type_id("state-area").unwrap();
        assert_eq!(db2.atom_count(state), 2);
        assert_eq!(db2.link_count(sa), 2);
        let names: Vec<String> = db2
            .atoms_of(state)
            .map(|(_, t)| t[0].as_text().unwrap().to_owned())
            .collect();
        assert_eq!(names, vec!["SP", "MG"]);
        assert!(db2.audit_referential_integrity().is_empty());
    }

    #[test]
    fn roundtrip_preserves_slots_across_tombstones() {
        let mut db = sample_db();
        let state = db.schema().atom_type_id("state").unwrap();
        // delete slot 0 so the snapshot has a gap
        db.delete_atom(AtomId::new(state, 0)).unwrap();
        let snap = DatabaseSnapshot::capture(&db);
        let db2 = snap.restore().unwrap();
        assert!(!db2.atom_exists(AtomId::new(state, 0)));
        assert!(db2.atom_exists(AtomId::new(state, 1)));
        assert_eq!(
            db2.atom(AtomId::new(state, 1)).unwrap()[0],
            Value::from("MG")
        );
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let mut db = sample_db();
        let state = db.schema().atom_type_id("state").unwrap();
        db.create_index(state, "sname", IndexKind::Hash).unwrap();
        // a tombstone, so slot gaps travel through the binary form too
        db.delete_atom(AtomId::new(state, 0)).unwrap();
        let snap = DatabaseSnapshot::capture(&db);
        let bytes = snap.to_bytes();
        let db2 = DatabaseSnapshot::from_bytes(&bytes).unwrap().restore().unwrap();
        assert_eq!(
            DatabaseSnapshot::capture(&db2).to_json_string(),
            snap.to_json_string(),
            "binary round-trip must agree with the JSON image"
        );
        assert!(db2.has_index(state, 0));
    }

    #[test]
    fn binary_rejects_truncation() {
        let bytes = DatabaseSnapshot::capture(&sample_db()).to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(DatabaseSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn indexes_survive_roundtrip() {
        let mut db = sample_db();
        let state = db.schema().atom_type_id("state").unwrap();
        db.create_index(state, "sname", IndexKind::Hash).unwrap();
        let db2 = DatabaseSnapshot::capture(&db).restore().unwrap();
        assert!(db2.has_index(state, 0));
        assert_eq!(
            db2.lookup_eq(state, 0, &Value::from("MG")).unwrap().len(),
            1
        );
    }
}
