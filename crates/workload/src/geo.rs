//! Synthetic geography generator (benchmarks B1/B3/B4/B7).
//!
//! Scales the Fig. 1 schema to arbitrary sizes with a tunable **sharing
//! degree**: the fraction of each river's course edges that are borrowed
//! from state borders instead of being private. `share = 0` produces fully
//! disjoint complex objects (the case hierarchical models handle);
//! `share → 1` produces heavily overlapping molecules — the regime the MAD
//! model was built for.

use mad_model::{AtomId, AtomTypeId, AttrType, Result, SchemaBuilder, Value};
use mad_storage::Database;
use crate::rng::StdRng;

/// Parameters of the synthetic geography.
#[derive(Clone, Debug)]
pub struct GeoParams {
    /// Number of states.
    pub states: usize,
    /// Border edges per state.
    pub edges_per_state: usize,
    /// Number of rivers.
    pub rivers: usize,
    /// Course edges per river.
    pub edges_per_river: usize,
    /// Fraction (0..=1) of river edges shared with state borders.
    pub share: f64,
    /// Points per edge is fixed at 2; this many extra cities are placed.
    pub cities: usize,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
}

impl Default for GeoParams {
    fn default() -> Self {
        GeoParams {
            states: 20,
            edges_per_state: 8,
            rivers: 5,
            edges_per_river: 12,
            share: 0.5,
            cities: 10,
            seed: 42,
        }
    }
}

/// Type handles for the generated database.
#[derive(Clone, Copy, Debug)]
pub struct GeoHandles {
    /// `state` atom type.
    pub state: AtomTypeId,
    /// `river` atom type.
    pub river: AtomTypeId,
    /// `city` atom type.
    pub city: AtomTypeId,
    /// `area` atom type.
    pub area: AtomTypeId,
    /// `net` atom type.
    pub net: AtomTypeId,
    /// `edge` atom type.
    pub edge: AtomTypeId,
    /// `point` atom type.
    pub point: AtomTypeId,
}

/// Generate a synthetic geography.
pub fn generate_geo(params: &GeoParams) -> Result<(Database, GeoHandles)> {
    let schema = SchemaBuilder::new()
        .atom_type(
            "state",
            &[("sname", AttrType::Text), ("hectare", AttrType::Float)],
        )
        .atom_type(
            "river",
            &[("rname", AttrType::Text), ("length", AttrType::Float)],
        )
        .atom_type(
            "city",
            &[("cname", AttrType::Text), ("population", AttrType::Int)],
        )
        .atom_type("area", &[("aid", AttrType::Int)])
        .atom_type("net", &[("nid", AttrType::Int)])
        .atom_type("edge", &[("eid", AttrType::Int)])
        .atom_type(
            "point",
            &[("x", AttrType::Float), ("y", AttrType::Float)],
        )
        .link_type("state-area", "state", "area")
        .link_type("river-net", "river", "net")
        .link_type("city-point", "city", "point")
        .link_type("area-edge", "area", "edge")
        .link_type("net-edge", "net", "edge")
        .link_type("edge-point", "edge", "point")
        .build()?;
    let mut db = Database::new(schema);
    let h = GeoHandles {
        state: db.schema().atom_type_id("state")?,
        river: db.schema().atom_type_id("river")?,
        city: db.schema().atom_type_id("city")?,
        area: db.schema().atom_type_id("area")?,
        net: db.schema().atom_type_id("net")?,
        edge: db.schema().atom_type_id("edge")?,
        point: db.schema().atom_type_id("point")?,
    };
    let sa = db.schema().link_type_id("state-area")?;
    let rn = db.schema().link_type_id("river-net")?;
    let cp = db.schema().link_type_id("city-point")?;
    let ae = db.schema().link_type_id("area-edge")?;
    let ne = db.schema().link_type_id("net-edge")?;
    let ep = db.schema().link_type_id("edge-point")?;
    let mut rng = StdRng::seed_from_u64(params.seed);

    // shared pool of points: 2 per (maximum possible) edge, reused across
    // neighbouring edges with 50% probability to create point sharing
    let total_edges = params.states * params.edges_per_state
        + params.rivers * params.edges_per_river;
    let mut points: Vec<AtomId> = Vec::with_capacity(total_edges + 1);
    for _ in 0..(total_edges + 1) {
        points.push(db.insert_atom(
            h.point,
            vec![
                Value::Float(rng.gen_range(0.0..100.0)),
                Value::Float(rng.gen_range(0.0..100.0)),
            ],
        )?);
    }

    let mut eid = 0i64;
    let mut border_edges: Vec<AtomId> = Vec::new();
    for si in 0..params.states {
        let s = db.insert_atom(
            h.state,
            vec![
                Value::Text(format!("S{si}")),
                Value::Float(rng.gen_range(100.0..2000.0)),
            ],
        )?;
        let a = db.insert_atom(h.area, vec![Value::Int(si as i64)])?;
        db.connect(sa, s, a)?;
        for k in 0..params.edges_per_state {
            let e = db.insert_atom(h.edge, vec![Value::Int(eid)])?;
            eid += 1;
            db.connect(ae, a, e)?;
            // chain points around the border loop (point sharing between
            // consecutive edges)
            let p1 = points[(si * params.edges_per_state + k) % points.len()];
            let p2 = points[(si * params.edges_per_state + k + 1) % points.len()];
            db.connect(ep, e, p1)?;
            if p2 != p1 {
                db.connect(ep, e, p2)?;
            }
            border_edges.push(e);
        }
    }

    for ri in 0..params.rivers {
        let r = db.insert_atom(
            h.river,
            vec![
                Value::Text(format!("R{ri}")),
                Value::Float(rng.gen_range(100.0..5000.0)),
            ],
        )?;
        let n = db.insert_atom(h.net, vec![Value::Int(ri as i64)])?;
        db.connect(rn, r, n)?;
        for _ in 0..params.edges_per_river {
            if !border_edges.is_empty() && rng.gen_bool(params.share.clamp(0.0, 1.0)) {
                // shared subobject: the river's course reuses a border edge
                let e = border_edges[rng.gen_range(0..border_edges.len())];
                // net-edge links are a set; re-picking the same edge is a no-op
                db.connect(ne, n, e)?;
            } else {
                let e = db.insert_atom(h.edge, vec![Value::Int(eid)])?;
                eid += 1;
                db.connect(ne, n, e)?;
                let p1 = points[rng.gen_range(0..points.len())];
                let p2 = points[rng.gen_range(0..points.len())];
                db.connect(ep, e, p1)?;
                if p2 != p1 {
                    db.connect(ep, e, p2)?;
                }
            }
        }
    }

    for ci in 0..params.cities {
        let c = db.insert_atom(
            h.city,
            vec![
                Value::Text(format!("C{ci}")),
                Value::Int(rng.gen_range(1_000i64..10_000_000)),
            ],
        )?;
        let p = points[rng.gen_range(0..points.len())];
        db.connect(cp, c, p)?;
    }

    Ok((db, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_core::derive::{derive_molecules, DeriveOptions, Strategy};
    use mad_core::structure::path;

    #[test]
    fn deterministic_per_seed() {
        let p = GeoParams::default();
        let (a, _) = generate_geo(&p).unwrap();
        let (b, _) = generate_geo(&p).unwrap();
        assert_eq!(a.total_atoms(), b.total_atoms());
        assert_eq!(a.total_links(), b.total_links());
        let (c, _) = generate_geo(&GeoParams {
            seed: 7,
            ..p.clone()
        })
        .unwrap();
        // same structure counts for states/areas regardless of seed
        assert_eq!(
            a.atom_count(AtomTypeId(0)),
            c.atom_count(AtomTypeId(0))
        );
    }

    #[test]
    fn sharing_degree_controls_overlap() {
        let base = GeoParams {
            states: 10,
            rivers: 10,
            edges_per_river: 10,
            ..Default::default()
        };
        let (disjoint, h) = generate_geo(&GeoParams {
            share: 0.0,
            ..base.clone()
        })
        .unwrap();
        let (shared, h2) = generate_geo(&GeoParams {
            share: 1.0,
            ..base
        })
        .unwrap();
        // with share=1 no private river edges exist → fewer edge atoms
        assert!(shared.atom_count(h2.edge) < disjoint.atom_count(h.edge));
        assert!(disjoint.audit_referential_integrity().is_empty());
        assert!(shared.audit_referential_integrity().is_empty());
    }

    #[test]
    fn molecule_derivation_works_on_generated_data() {
        let (db, _) = generate_geo(&GeoParams::default()).unwrap();
        let md = path(db.schema(), &["state", "area", "edge", "point"]).unwrap();
        for strat in [Strategy::Bitset, Strategy::PerRoot] {
            let ms =
                derive_molecules(&db, &md, &DeriveOptions::with_strategy(strat)).unwrap();
            assert_eq!(ms.len(), 20);
        }
    }
}
