//! Quantitative claim tables (B1, B3, B4, B5, B6, B7) as plain wall-clock
//! measurements — the numbers recorded in `EXPERIMENTS.md`. Criterion gives
//! the statistically rigorous versions. Run via
//! `cargo run --release -p mad-bench --bin tables` or as part of
//! `cargo bench` (the `claim_tables` bench target).

use crate::{measure, presets, table};
use mad_core::atom_ops::{self, AtomPred};
use mad_core::derive::{derive_molecules, DeriveOptions, Strategy};
use mad_core::molecule::MoleculeType;
use mad_core::ops::Engine;
use mad_core::qual::{CmpOp, QualExpr};
use mad_core::recursive::{derive_recursive_one, RecursiveSpec};
use mad_core::structure::{path, MoleculeStructure, StructureBuilder};
use mad_model::{AttrType, SchemaBuilder, Value};
use mad_nf2::materialize;
use mad_relational::closure::{reachable_from, transitive_closure};
use mad_relational::derive_join::{derive_via_algebra, derive_via_hash_joins};
use mad_relational::RelationalImage;
use mad_storage::{Database, IndexKind};
use mad_workload::{generate_bom, generate_geo};

fn heading(s: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{s}");
    println!("{}", "=".repeat(72));
}

/// Run every claim table in order.
pub fn run_all() {
    b1();
    b3();
    b4();
    b5();
    b6();
    b7();
}

/// B1 — molecule derivation: MAD links vs relational joins.
pub fn b1() {
    heading("B1 — derivation: MAD links vs relational join cascade (µs/derivation)");
    let mut rows = Vec::new();
    for (label, params) in presets::geo_sweep() {
        let (db, _) = generate_geo(&params).unwrap();
        let md = path(db.schema(), &["state", "area", "edge", "point"]).unwrap();
        let image = RelationalImage::from_database(&db).unwrap();
        let mad = measure(10, || {
            derive_molecules(&db, &md, &DeriveOptions::default()).unwrap()
        });
        let hash = measure(10, || derive_via_hash_joins(&image, &md).unwrap());
        let alg = if label == "small" {
            format!("{:.0}", measure(3, || derive_via_algebra(&image, &md).unwrap()))
        } else {
            "—".to_owned()
        };
        rows.push(vec![
            label.to_owned(),
            format!("{:.0}", mad),
            format!("{:.0}", hash),
            alg,
            format!("{:.2}×", hash / mad),
        ]);
    }
    for (share, params) in presets::share_sweep() {
        let (db, _) = generate_geo(&params).unwrap();
        let md = path(db.schema(), &["river", "net", "edge", "point"]).unwrap();
        let image = RelationalImage::from_database(&db).unwrap();
        let mad = measure(10, || {
            derive_molecules(&db, &md, &DeriveOptions::default()).unwrap()
        });
        let hash = measure(10, || derive_via_hash_joins(&image, &md).unwrap());
        rows.push(vec![
            format!("rivers share={share}"),
            format!("{:.0}", mad),
            format!("{:.0}", hash),
            "—".to_owned(),
            format!("{:.2}×", hash / mad),
        ]);
    }
    print!(
        "{}",
        table(
            &["workload", "MAD", "rel hash-join", "rel algebra", "join/MAD"],
            &rows
        )
    );
}

/// B3 — the bitset engine against the per-root reference.
pub fn b3() {
    heading("B3 — derivation: per-root reference vs bitset engine (µs/derivation)");
    let mut rows = Vec::new();
    let mut row = |label: String, db: &Database, md: &MoleculeStructure, iters| {
        let t = |s: Strategy| {
            measure(iters, || {
                derive_molecules(db, md, &DeriveOptions::with_strategy(s)).unwrap()
            })
        };
        let (per_root, bitset) = (t(Strategy::PerRoot), t(Strategy::Bitset));
        rows.push(vec![
            label,
            format!("{per_root:.0}"),
            format!("{bitset:.0}"),
            format!("{:.2}×", per_root / bitset),
        ]);
    };
    for (label, params) in presets::geo_sweep() {
        let (db, _) = generate_geo(&params).unwrap();
        let md = path(db.schema(), &["state", "area", "edge", "point"]).unwrap();
        row(label.to_owned(), &db, &md, 10);
    }
    for (share, params) in presets::share_sweep() {
        let (db, _) = generate_geo(&params).unwrap();
        let md = path(db.schema(), &["river", "net", "edge", "point"]).unwrap();
        row(format!("rivers share={share}"), &db, &md, 10);
    }
    // heavy per-root work: the 6-node point neighborhood over ~8k roots
    let (db, _) = generate_geo(&presets::geo_sweep()[2].1).unwrap();
    let md = StructureBuilder::new(db.schema())
        .node("point")
        .node("edge")
        .node("area")
        .node("state")
        .node("net")
        .node("river")
        .edge("point", "edge")
        .edge("edge", "area")
        .edge("area", "state")
        .edge("edge", "net")
        .edge("net", "river")
        .build()
        .unwrap();
    row("pt-neighborhood/8k roots".to_owned(), &db, &md, 3);
    print!(
        "{}",
        table(
            &["workload", "per-root", "bitset", "per-root/bitset"],
            &rows
        )
    );
}

/// B4 — restriction pushdown vs derive-then-filter.
pub fn b4() {
    heading("B4 — restriction pushdown (µs/query)");
    let (db, _) = generate_geo(&mad_workload::GeoParams {
        states: 400,
        edges_per_state: 8,
        rivers: 40,
        edges_per_river: 10,
        share: 0.5,
        cities: 0,
        seed: 21,
    })
    .unwrap();
    let mut engine = Engine::new(db);
    engine
        .create_index("state", "hectare", IndexKind::Ordered)
        .unwrap();
    let md = path(engine.db().schema(), &["state", "area", "edge", "point"]).unwrap();
    let mut rows = Vec::new();
    for (label, threshold) in [
        ("~0.1%", 1998.0),
        ("~1%", 1981.0),
        ("~10%", 1810.0),
        ("~50%", 1050.0),
    ] {
        let qual = QualExpr::cmp_const(0, 1, CmpOp::Gt, threshold);
        let pushed = measure(10, || {
            engine
                .evaluate_restricted(&md, &qual, Strategy::PerRoot)
                .unwrap()
        });
        let naive = measure(10, || {
            engine
                .evaluate_filtered(&md, &qual, Strategy::PerRoot)
                .unwrap()
        });
        rows.push(vec![
            label.to_owned(),
            format!("{pushed:.0}"),
            format!("{naive:.0}"),
            format!("{:.1}×", naive / pushed),
        ]);
    }
    print!(
        "{}",
        table(
            &["selectivity", "pushdown", "derive-then-filter", "speedup"],
            &rows
        )
    );
}

/// B5 — recursive molecules vs relational transitive closure.
pub fn b5() {
    heading("B5 — parts explosion: recursive molecule vs semi-naive closure (µs)");
    let mut rows = Vec::new();
    for (depth, params) in presets::bom_depth_sweep() {
        let (db, h) = generate_bom(&params).unwrap();
        let image = RelationalImage::from_database(&db).unwrap();
        let aux = image.link_mapping(h.composition).1.as_ref().unwrap().clone();
        let spec = RecursiveSpec {
            atom_type: h.parts,
            link: h.composition,
            dir: mad_storage::database::Direction::Fwd,
            max_depth: None,
        };
        let root = h.roots[0];
        let explosion = measure(10, || derive_recursive_one(&db, &spec, root).unwrap());
        let reach = measure(10, || {
            reachable_from(&aux, &Value::Int(root.pack() as i64)).unwrap()
        });
        let full = measure(3, || transitive_closure(&aux, None).unwrap());
        rows.push(vec![
            format!("depth={depth}"),
            format!("{explosion:.0}"),
            format!("{reach:.0}"),
            format!("{full:.0}"),
        ]);
    }
    print!(
        "{}",
        table(
            &["BOM", "MAD explosion (1 root)", "rel reachability (1 root)", "rel full closure"],
            &rows
        )
    );
}

/// B6 — atom-type algebra vs relational algebra (degeneration overhead).
pub fn b6() {
    heading("B6 — atom-type ops vs relational ops (µs/op, n=10000)");
    let schema = SchemaBuilder::new()
        .atom_type("item", &[("k", AttrType::Int), ("v", AttrType::Int)])
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let item = db.schema().atom_type_id("item").unwrap();
    for i in 0..10_000i64 {
        db.insert_atom(item, vec![Value::Int(i), Value::Int(i % 100)])
            .unwrap();
    }
    let image = RelationalImage::from_database(&db).unwrap();
    let rel = image.atom_relation(item).clone();
    let pred = AtomPred::cmp(1, CmpOp::Lt, 50);
    let rel_pred = mad_relational::algebra::Pred::cmp("v", mad_relational::algebra::Cmp::Lt, 50);
    let rows = vec![
        vec![
            "σ (select half)".to_owned(),
            format!("{:.0}", measure(5, || {
                let mut d = db.clone();
                atom_ops::restrict(&mut d, item, &pred, None).unwrap()
            })),
            format!("{:.0}", measure(5, || mad_relational::algebra::select(&rel, &rel_pred).unwrap())),
        ],
        vec![
            "π (1 of 2 attrs)".to_owned(),
            format!("{:.0}", measure(5, || {
                let mut d = db.clone();
                atom_ops::project(&mut d, item, &["v"], None).unwrap()
            })),
            format!("{:.0}", measure(5, || mad_relational::algebra::project(&rel, &["v"]).unwrap())),
        ],
        vec![
            "ω (self union)".to_owned(),
            format!("{:.0}", measure(5, || {
                let mut d = db.clone();
                atom_ops::union(&mut d, item, item, None).unwrap()
            })),
            format!("{:.0}", measure(5, || mad_relational::algebra::union(&rel, &rel).unwrap())),
        ],
        vec![
            "δ (self difference)".to_owned(),
            format!("{:.0}", measure(5, || {
                let mut d = db.clone();
                atom_ops::difference(&mut d, item, item, None).unwrap()
            })),
            format!("{:.0}", measure(5, || mad_relational::algebra::difference(&rel, &rel).unwrap())),
        ],
    ];
    print!(
        "{}",
        table(&["operation", "MAD (incl. clone+identity)", "relational"], &rows)
    );
    println!("(MAD column includes the per-run database clone; see criterion bench for batched numbers)");
}

/// B7 — dynamic definition vs static NF² materialization.
pub fn b7() {
    heading("B7 — dynamic object definition: two views on demand (µs)");
    let mut rows = Vec::new();
    for (label, params) in presets::geo_sweep() {
        if label == "large" {
            continue;
        }
        let (db, _) = generate_geo(&params).unwrap();
        let md1 = path(db.schema(), &["state", "area", "edge", "point"]).unwrap();
        let md2 = StructureBuilder::new(db.schema())
            .node("point")
            .node("edge")
            .node("area")
            .node("state")
            .node("net")
            .node("river")
            .edge("point", "edge")
            .edge("edge", "area")
            .edge("area", "state")
            .edge("edge", "net")
            .edge("net", "river")
            .build()
            .unwrap();
        let mad = measure(5, || {
            let a = derive_molecules(&db, &md1, &DeriveOptions::default()).unwrap();
            let b = derive_molecules(&db, &md2, &DeriveOptions::default()).unwrap();
            (a, b)
        });
        let nf2 = measure(5, || {
            let a = derive_molecules(&db, &md1, &DeriveOptions::default()).unwrap();
            let na = materialize(
                &db,
                &MoleculeType {
                    name: "a".into(),
                    structure: md1.clone(),
                    molecules: a,
                },
            )
            .unwrap();
            let b = derive_molecules(&db, &md2, &DeriveOptions::default()).unwrap();
            let nb = materialize(
                &db,
                &MoleculeType {
                    name: "b".into(),
                    structure: md2.clone(),
                    molecules: b,
                },
            )
            .unwrap();
            (na, nb)
        });
        rows.push(vec![
            label.to_owned(),
            format!("{mad:.0}"),
            format!("{nf2:.0}"),
            format!("{:.2}×", nf2 / mad),
        ]);
    }
    print!(
        "{}",
        table(
            &["workload", "MAD two views", "NF² two materializations", "overhead"],
            &rows
        )
    );
}
