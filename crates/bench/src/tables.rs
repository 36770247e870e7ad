//! The quantitative claim tables — B1, B3–B7 and E8 — as plain wall-clock
//! measurements through [`measure`]. Each table sets the MAD engine
//! against the baseline the paper argues against (the relational join
//! cascade, transitive closure or algebra, NF² materialisation) or, for
//! B3, against the per-root reference derivation. Where two evaluators
//! must return the same answer, the table checks that they do before it
//! times either. Run `cargo run --release -p mad-bench --bin tables
//! [name …]` with names from [`TABLES`]; no name runs them all.

use crate::{measure, measure_batched, presets, table};
use mad_core::atom_ops::{self, AtomPred};
use mad_core::derive::{derive_molecules, DeriveOptions, Strategy};
use mad_core::molecule::MoleculeType;
use mad_core::ops::Engine;
use mad_core::qual::{CmpOp, QualExpr};
use mad_core::recursive::{derive_recursive_one, reachable_set, RecursiveSpec};
use mad_core::structure::{path, MoleculeStructure, StructureBuilder};
use mad_model::{AtomTypeId, AttrType, Schema, SchemaBuilder, Value};
use mad_nf2::materialize;
use mad_relational::algebra as rel;
use mad_relational::closure::{reachable_from, transitive_closure};
use mad_relational::derive_join::{derive_via_algebra, derive_via_hash_joins};
use mad_relational::{Relation, RelationalImage};
use mad_storage::database::Direction;
use mad_storage::Database;
use mad_workload::{generate_bom, generate_geo, GeoParams};

/// What a table returns: any engine or baseline error, or a failed
/// agreement check.
pub type Res<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// A claim table: prints itself, or fails.
pub type Table = fn() -> Res;

/// Every claim table under the name the `tables` binary accepts.
pub const TABLES: [(&str, Table); 7] = [
    ("b1", b1),
    ("b3", b3),
    ("b4", b4),
    ("b5", b5),
    ("b6", b6),
    ("b7", b7),
    ("e8", e8),
];

/// Run the named tables in the order given, or all of [`TABLES`] when
/// `names` is empty. Every name is resolved before the first table runs.
pub fn run(names: &[String]) -> Res {
    let selected = if names.is_empty() {
        TABLES.iter().map(|&(_, f)| f).collect()
    } else {
        names
            .iter()
            .map(|n| {
                TABLES
                    .iter()
                    .find(|(t, _)| t == n)
                    .map(|&(_, f)| f)
                    .ok_or_else(|| {
                        let known: Vec<&str> = TABLES.iter().map(|(t, _)| *t).collect();
                        format!("unknown table `{n}` (known: {})", known.join(" "))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    for f in selected {
        f()?;
    }
    Ok(())
}

fn heading(s: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{s}");
    println!("{}", "=".repeat(72));
}

/// Fail the table unless two evaluators agreed.
fn agree(same: bool, what: &str) -> Res {
    if same {
        Ok(())
    } else {
        Err(format!("{what} disagree; nothing was timed").into())
    }
}

/// Microseconds, with one decimal below 10 µs.
fn us(x: f64) -> String {
    if x < 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.0}")
    }
}

fn ratio(num: f64, den: f64) -> String {
    format!("{:.2}×", num / den)
}

/// The geography preset of `presets::geo_sweep` called `label`.
fn geo_preset(label: &str) -> Res<GeoParams> {
    presets::geo_sweep()
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, p)| p)
        .ok_or_else(|| format!("no geography preset `{label}`").into())
}

/// `point-edge-(area-state, net-river)`: the six-node point neighborhood
/// of Fig. 2, rooted at every point.
fn point_neighborhood(schema: &Schema) -> mad_model::Result<MoleculeStructure> {
    StructureBuilder::new(schema)
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
}

/// B1 — molecule derivation: MAD links vs relational joins.
pub fn b1() -> Res {
    heading("B1 — derivation: MAD links vs relational join cascade (µs/derivation)");
    let mut rows = Vec::new();
    let sweeps = presets::geo_sweep()
        .into_iter()
        .map(|(label, p)| (label.to_owned(), p, ["state", "area", "edge", "point"]))
        .chain(presets::share_sweep().into_iter().map(|(share, p)| {
            (
                format!("rivers share={share}"),
                p,
                ["river", "net", "edge", "point"],
            )
        }));
    for (label, params, nodes) in sweeps {
        let (db, _) = generate_geo(&params)?;
        let md = path(db.schema(), &nodes)?;
        let image = RelationalImage::from_database(&db)?;
        let opts = DeriveOptions::default();
        agree(
            derive_molecules(&db, &md, &opts)? == derive_via_hash_joins(&image, &md)?,
            "B1 MAD and hash-join molecules",
        )?;
        let mad = measure(10, || derive_molecules(&db, &md, &opts))?;
        let hash = measure(10, || derive_via_hash_joins(&image, &md))?;
        let alg = if label == "small" {
            us(measure(3, || derive_via_algebra(&image, &md))?)
        } else {
            "—".to_owned()
        };
        rows.push(vec![label, us(mad), us(hash), alg, ratio(hash, mad)]);
    }
    print!(
        "{}",
        table(
            &[
                "workload",
                "MAD",
                "rel hash-join",
                "rel algebra",
                "join/MAD"
            ],
            &rows
        )
    );
    Ok(())
}

/// B3 — the bitset engine against the per-root reference.
pub fn b3() -> Res {
    heading("B3 — derivation: per-root reference vs bitset engine (µs/derivation)");
    let mut rows = Vec::new();
    let mut row = |label: String, db: &Database, md: &MoleculeStructure, iters| -> Res {
        let t = |s: Strategy| {
            measure(iters, || {
                derive_molecules(db, md, &DeriveOptions::with_strategy(s))
            })
        };
        let (per_root, bitset) = (t(Strategy::PerRoot)?, t(Strategy::Bitset)?);
        rows.push(vec![
            label,
            us(per_root),
            us(bitset),
            ratio(per_root, bitset),
        ]);
        Ok(())
    };
    for (label, params) in presets::geo_sweep() {
        let (db, _) = generate_geo(&params)?;
        let md = path(db.schema(), &["state", "area", "edge", "point"])?;
        row(label.to_owned(), &db, &md, 10)?;
    }
    for (share, params) in presets::share_sweep() {
        let (db, _) = generate_geo(&params)?;
        let md = path(db.schema(), &["river", "net", "edge", "point"])?;
        row(format!("rivers share={share}"), &db, &md, 10)?;
    }
    // heavy per-root work: the 6-node point neighborhood over ~8k roots
    let (db, _) = generate_geo(&geo_preset("large")?)?;
    let md = point_neighborhood(db.schema())?;
    row("pt-neighborhood/8k roots".to_owned(), &db, &md, 3)?;
    print!(
        "{}",
        table(
            &["workload", "per-root", "bitset", "per-root/bitset"],
            &rows
        )
    );
    Ok(())
}

/// B4 — restriction pushdown vs derive-then-filter, for the per-root
/// reference (root-only preselection) and the bitset engine MQL runs
/// (conjuncts pushed to every structure node).
pub fn b4() -> Res {
    heading("B4 — restriction pushdown (µs/query)");
    let (db, _) = generate_geo(&GeoParams {
        states: 400,
        edges_per_state: 8,
        rivers: 40,
        edges_per_river: 10,
        share: 0.5,
        cities: 0,
        seed: 21,
    })?;
    let engine = Engine::new(db);
    let md = path(engine.db().schema(), &["state", "area", "edge", "point"])?;
    let mut rows = Vec::new();
    // hectare is uniform in 100..2000
    for (label, threshold) in [
        ("~0.1%", 1998.0),
        ("~1%", 1981.0),
        ("~10%", 1810.0),
        ("~50%", 1050.0),
    ] {
        let qual = QualExpr::cmp_const(0, 1, CmpOp::Gt, threshold);
        let filtered = engine.evaluate_filtered(&md, &qual, Strategy::PerRoot)?;
        for s in [Strategy::PerRoot, Strategy::Bitset] {
            agree(
                engine.evaluate_restricted(&md, &qual, s)? == filtered,
                &format!("B4 {s:?} pushdown and derive-then-filter"),
            )?;
        }
        let pushed = |s| measure(50, || engine.evaluate_restricted(&md, &qual, s));
        let per_root = pushed(Strategy::PerRoot)?;
        let bitset = pushed(Strategy::Bitset)?;
        let naive = measure(50, || {
            engine.evaluate_filtered(&md, &qual, Strategy::PerRoot)
        })?;
        rows.push(vec![
            label.to_owned(),
            us(per_root),
            us(bitset),
            us(naive),
            ratio(naive, per_root),
            ratio(naive, bitset),
        ]);
    }
    print!(
        "{}",
        table(
            &[
                "selectivity",
                "pushdown per-root",
                "pushdown bitset",
                "derive-then-filter",
                "filter/per-root",
                "filter/bitset",
            ],
            &rows
        )
    );
    Ok(())
}

/// B5 — recursive molecules vs relational transitive closure.
pub fn b5() -> Res {
    heading("B5 — parts explosion: recursive molecule vs semi-naive closure (µs)");
    let mut rows = Vec::new();
    for (depth, params) in presets::bom_depth_sweep() {
        let (db, h) = generate_bom(&params)?;
        let image = RelationalImage::from_database(&db)?;
        let aux = image
            .link_mapping(h.composition)
            .1
            .clone()
            .ok_or("composition is n:m but has no auxiliary relation")?;
        let spec = RecursiveSpec {
            atom_type: h.parts,
            link: h.composition,
            dir: Direction::Fwd,
            max_depth: None,
        };
        let bounded = RecursiveSpec {
            max_depth: Some(2),
            ..spec.clone()
        };
        let root = *h.roots.first().ok_or("BOM without a root")?;
        let root_key = Value::Int(root.pack() as i64);
        let mut mad: Vec<Value> = reachable_set(&db, &spec, root)?
            .into_iter()
            .map(|a| Value::Int(a.pack() as i64))
            .collect();
        mad.sort();
        agree(
            mad == reachable_from(&aux, &root_key)?,
            "B5 MAD reachable set and relational reachability",
        )?;
        let explosion = measure(10, || derive_recursive_one(&db, &spec, root))?;
        let depth2 = measure(10, || derive_recursive_one(&db, &bounded, root))?;
        let reach = measure(10, || reachable_from(&aux, &root_key))?;
        let full = measure(3, || transitive_closure(&aux, None))?;
        rows.push(vec![
            format!("depth={depth}"),
            us(explosion),
            us(depth2),
            us(reach),
            us(full),
        ]);
    }
    print!(
        "{}",
        table(
            &[
                "BOM",
                "MAD explosion (1 root)",
                "MAD depth 2 (1 root)",
                "rel reachability (1 root)",
                "rel full closure",
            ],
            &rows
        )
    );
    Ok(())
}

/// `item(k, v)` with `n` atoms; with `linked`, each item is also linked to
/// one of 16 `tag` atoms, so the MAD side pays for link-type inheritance.
fn item_db(n: usize, linked: bool) -> mad_model::Result<Database> {
    let mut sb =
        SchemaBuilder::new().atom_type("item", &[("k", AttrType::Int), ("v", AttrType::Int)]);
    if linked {
        sb = sb
            .atom_type("tag", &[("t", AttrType::Int)])
            .link_type("item-tag", "item", "tag");
    }
    let mut db = Database::new(sb.build()?);
    let item = db.schema().atom_type_id("item")?;
    let (mut tags, mut item_tag) = (Vec::new(), None);
    if linked {
        let tag = db.schema().atom_type_id("tag")?;
        tags = db.insert_atoms(tag, (0..16).map(|t| vec![Value::Int(t)]))?;
        item_tag = Some(db.schema().link_type_id("item-tag")?);
    }
    for i in 0..n as i64 {
        let a = db.insert_atom(item, vec![Value::Int(i), Value::Int(i % 100)])?;
        if let (Some(lt), Some(&t)) = (item_tag, tags.get(i as usize % 16)) {
            db.connect(lt, a, t)?;
        }
    }
    Ok(db)
}

/// B6 — atom-type algebra vs relational algebra (the degeneration
/// overhead). The MAD columns time the operator on a fresh fork of the
/// database, built outside the clock.
pub fn b6() -> Res {
    heading("B6 — atom-type ops vs relational ops (µs/op)");
    type AtomOp = fn(&mut Database, AtomTypeId) -> mad_model::Result<AtomTypeId>;
    type RelOp<'a> = &'a dyn Fn() -> mad_model::Result<Relation>;
    let rel_pred = rel::Pred::cmp("v", rel::Cmp::Lt, 50);
    let mut rows = Vec::new();
    for n in [1_000usize, 10_000, 50_000] {
        let flat = item_db(n, false)?;
        let linked = item_db(n, true)?;
        let item = flat.schema().atom_type_id("item")?;
        let image = RelationalImage::from_database(&flat)?;
        let r = image.atom_relation(item).clone();
        let ops: [(&str, AtomOp, RelOp); 4] = [
            (
                "σ (select half)",
                |d, t| atom_ops::restrict(d, t, &AtomPred::cmp(1, CmpOp::Lt, 50), None),
                &|| rel::select(&r, &rel_pred),
            ),
            (
                "π (1 of 2 attrs)",
                |d, t| atom_ops::project(d, t, &["v"], None),
                &|| rel::project(&r, &["v"]),
            ),
            (
                "ω (self union)",
                |d, t| atom_ops::union(d, t, t, None),
                &|| rel::union(&r, &r),
            ),
            (
                "δ (self difference)",
                |d, t| atom_ops::difference(d, t, t, None),
                &|| rel::difference(&r, &r),
            ),
        ];
        for (name, atom_op, rel_op) in ops {
            let on = |db: &Database| -> Res<f64> {
                let t = db.schema().atom_type_id("item")?;
                Ok(measure_batched(
                    5,
                    || db.clone(),
                    |mut d| atom_op(&mut d, t),
                )?)
            };
            let (flat_us, linked_us) = (on(&flat)?, on(&linked)?);
            let relational = measure(5, rel_op)?;
            rows.push(vec![
                name.to_owned(),
                format!("n={n}"),
                us(flat_us),
                us(linked_us),
                us(relational),
                ratio(flat_us, relational),
            ]);
        }
    }
    // × on a 100 × 100 square (quadratic output)
    let schema = SchemaBuilder::new()
        .atom_type("item", &[("k", AttrType::Int), ("v", AttrType::Int)])
        .atom_type("other", &[("k2", AttrType::Int)])
        .build()?;
    let mut db = Database::new(schema);
    let item = db.schema().atom_type_id("item")?;
    let other = db.schema().atom_type_id("other")?;
    db.insert_atoms(
        item,
        (0..100i64).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
    )?;
    db.insert_atoms(other, (0..100i64).map(|i| vec![Value::Int(i)]))?;
    let image = RelationalImage::from_database(&db)?;
    let r1 = rel::rename(image.atom_relation(item), &[("_id", "_id1")])?;
    let r2 = rel::rename(image.atom_relation(other), &[("_id", "_id2")])?;
    let product = measure_batched(
        5,
        || db.clone(),
        |mut d| atom_ops::product(&mut d, item, other, None),
    )?;
    let relational = measure(5, || rel::product(&r1, &r2))?;
    rows.push(vec![
        "× (product)".to_owned(),
        "100×100".to_owned(),
        us(product),
        "—".to_owned(),
        us(relational),
        ratio(product, relational),
    ]);
    print!(
        "{}",
        table(
            &[
                "operation",
                "size",
                "MAD flat",
                "MAD linked",
                "relational",
                "flat/rel"
            ],
            &rows
        )
    );
    Ok(())
}

/// B7 — dynamic definition vs static NF² materialization.
pub fn b7() -> Res {
    heading("B7 — dynamic object definition: two views on demand (µs)");
    let mut rows = Vec::new();
    for (label, params) in presets::geo_sweep() {
        if label == "large" {
            continue;
        }
        let (db, _) = generate_geo(&params)?;
        let md1 = path(db.schema(), &["state", "area", "edge", "point"])?;
        let md2 = point_neighborhood(db.schema())?;
        let opts = DeriveOptions::default();
        let mad = measure(5, || -> mad_model::Result<_> {
            Ok((
                derive_molecules(&db, &md1, &opts)?,
                derive_molecules(&db, &md2, &opts)?,
            ))
        })?;
        let view = |name: &str, md: &MoleculeStructure| {
            let molecules = derive_molecules(&db, md, &opts)?;
            materialize(
                &db,
                &MoleculeType {
                    name: name.into(),
                    structure: md.clone(),
                    molecules,
                    attrs: Vec::new(),
                },
            )
        };
        let nf2 = measure(5, || -> mad_model::Result<_> {
            Ok((view("a", &md1)?, view("b", &md2)?))
        })?;
        rows.push(vec![label.to_owned(), us(mad), us(nf2), ratio(nf2, mad)]);
    }
    print!(
        "{}",
        table(
            &[
                "workload",
                "MAD two views",
                "NF² two materializations",
                "overhead"
            ],
            &rows
        )
    );
    Ok(())
}

/// E8 — molecule-set operations of §3.2: Ω, Δ and the derived
/// Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2)), on two overlapping halves of one
/// molecule type (pure set computation; nothing is propagated).
pub fn e8() -> Res {
    heading("E8 — molecule-set ops: Ω, Δ and Ψ as a double Δ (µs/op)");
    let mut rows = Vec::new();
    for states in [100usize, 400, 1600] {
        let (db, _) = generate_geo(&GeoParams {
            states,
            edges_per_state: 6,
            rivers: 10,
            edges_per_river: 8,
            share: 0.4,
            cities: 0,
            seed: 33,
        })?;
        let mut engine = Engine::new(db);
        let md = path(engine.db().schema(), &["state", "area", "edge"])?;
        let mt = engine.define("mt", md)?;
        // two overlapping halves by hectare
        let low = engine.restrict(&mt, &QualExpr::cmp_const(0, 1, CmpOp::Le, 1300.0))?;
        let high = engine.restrict(&mt, &QualExpr::cmp_const(0, 1, CmpOp::Gt, 700.0))?;
        let omega = measure(10, || engine.union_set(&low, &high))?;
        let delta = measure(10, || engine.difference_set(&low, &high))?;
        let psi = measure(10, || engine.intersection_set(&low, &high))?;
        rows.push(vec![
            format!("states={states}"),
            us(omega),
            us(delta),
            us(psi),
            ratio(psi, delta),
        ]);
    }
    print!("{}", table(&["workload", "Ω", "Δ", "Ψ", "Ψ/Δ"], &rows));
    Ok(())
}
