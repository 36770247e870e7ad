//! Regeneration of every figure of the paper plus the in-text examples.
//!
//! One output section per artifact: Fig. 1–5, the in-text examples E6, E7
//! and E8, and the B2 duplication table. The output is deterministic;
//! `tests/golden/figures.txt` holds it and `scripts/ci.sh` diffs a fresh
//! run against it. Run via `cargo run --release -p mad-bench --bin
//! figures`.

use crate::{presets, table};
use mad_core::atom_ops::{self, AtomPred};
use mad_core::derive::{derive_molecules, DeriveOptions};
use mad_core::ops::Engine;
use mad_core::qual::{CmpOp, QualExpr};
use mad_core::recursive::{derive_recursive_one, RecursiveSpec};
use mad_core::structure::{path, StructureBuilder};
use mad_model::Value;
use mad_nf2::materialize;
use mad_relational::algebra as rel_alg;
use mad_relational::RelationalImage;
use mad_storage::database::Direction;
use mad_storage::DatabaseStats;
use mad_workload::{brazil_database, generate_bom};

fn heading(s: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{s}");
    println!("{}", "=".repeat(72));
}

/// Run every figure/example regeneration in order.
pub fn run_all() {
    fig1();
    fig2();
    fig3();
    fig4();
    fig5();
    e6_border();
    e7_mql();
    e8_intersection();
    b2_duplication();
    claim_auxiliary_relations();
}

/// Fig. 1 — the sample geographic application: ER/MAD schema + networks.
pub fn fig1() {
    heading("Figure 1 — sample geographic application (schema + atom networks)");
    let (db, _) = brazil_database().unwrap();
    println!("MAD diagram (database schema):");
    print!("{}", db.schema().render());
    println!("\natom networks (database occurrence):");
    print!("{}", DatabaseStats::collect(&db).render());
}

/// Fig. 2 — molecule types `point neighborhood` and `mt state`, with the
/// shared subobjects made visible.
pub fn fig2() {
    heading("Figure 2 — some complex objects (dynamic definition + sharing)");
    let (db, h) = brazil_database().unwrap();
    let mut engine = Engine::new(db);
    // mt state = state-area-edge-point
    let md = path(engine.db().schema(), &["state", "area", "edge", "point"]).unwrap();
    println!(
        "molecule structure: {}",
        md.render_compact(engine.db().schema())
    );
    let mt_state = engine.define("mt_state", md).unwrap();
    println!(
        "molecule set: {} molecules (one per state atom)",
        mt_state.len()
    );
    let shared = mt_state.shared_atoms();
    println!(
        "shared subobjects: {} atoms appear in >= 2 state molecules",
        shared.len()
    );
    // point neighborhood — the same networks, symmetric direction
    let md = StructureBuilder::new(engine.db().schema())
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
    println!(
        "\nmolecule structure: {}",
        md.render_compact(engine.db().schema())
    );
    let ep = engine.db().schema().link_type_id("edge-point").unwrap();
    let pn_root = engine.db().link_store(ep).partners_fwd(h.shared_edges[0])[0];
    let m = engine.derive_single(&md, pn_root).unwrap();
    println!("one `point neighborhood` molecule (note river AND state reached):");
    print!("{}", m.render_tree(engine.db(), &md));
}

/// Fig. 3 — comparison of relational vs. MAD concepts, each row *executed*.
pub fn fig3() {
    heading("Figure 3 — comparison of corresponding concepts (executed)");
    let (db, h) = brazil_database().unwrap();
    let image = RelationalImage::from_database(&db).unwrap();
    let state_rel = image.atom_relation(h.state);
    let rows = vec![
        vec![
            "attribute".into(),
            "attribute".into(),
            format!("state.sname / sname"),
        ],
        vec![
            "relation schema".into(),
            "atom-type description".into(),
            format!(
                "{} cols / {} attrs",
                state_rel.arity(),
                db.schema().atom_type(h.state).arity()
            ),
        ],
        vec![
            "tuple set".into(),
            "atom-type occurrence".into(),
            format!("{} tuples / {} atoms", state_rel.len(), db.atom_count(h.state)),
        ],
        vec![
            "tuple".into(),
            "atom".into(),
            "1 row ↔ 1 identified atom".into(),
        ],
        vec![
            "relation".into(),
            "atom type".into(),
            "state ↔ state".into(),
        ],
        vec![
            "— (FK + aux relation)".into(),
            "link / link type".into(),
            format!(
                "{} aux relations vs {} link types",
                image.auxiliary_count(),
                db.schema().link_type_count()
            ),
        ],
        vec![
            "referential integrity (?)".into(),
            "referential integrity (!)".into(),
            format!(
                "audit: {} violations (enforced by construction)",
                db.audit_referential_integrity().len()
            ),
        ],
        vec![
            "'relation domain'".into(),
            "database domain DB*".into(),
            "closure verified by tests".into(),
        ],
    ];
    print!(
        "{}",
        table(&["relational concept", "MAD concept", "witness"], &rows)
    );
}

/// Fig. 4 — the formal specification of GEO_DB (schema + occurrence dump).
pub fn fig4() {
    heading("Figure 4 — formal specification of the geographic database");
    let (db, _) = brazil_database().unwrap();
    print!("{}", db.schema().render());
    println!();
    // occurrence excerpts in the paper's <atom …> style
    for (ty, def) in db.schema().atom_types() {
        let atoms: Vec<String> = db
            .atoms_of(ty)
            .take(3)
            .map(|(id, t)| {
                let vals: Vec<String> = t.iter().map(Value::to_string).collect();
                format!("{id}=<{}>", vals.join(","))
            })
            .collect();
        println!(
            "{} = <{}, {{…}}, {{{}{}}}> ∈ AT*",
            def.name,
            def.name,
            atoms.join(", "),
            if db.atom_count(ty) > 3 { ", …" } else { "" }
        );
    }
    for (lt, def) in db.schema().link_types() {
        let links: Vec<String> = db
            .links_of(lt)
            .take(3)
            .map(|(a, b)| format!("<{a},{b}>"))
            .collect();
        println!(
            "{} = <{}, {{{}, {}}}, {{{}{}}}> ∈ LT*",
            def.name,
            def.name,
            db.schema().atom_type(def.ends[0]).name,
            db.schema().atom_type(def.ends[1]).name,
            links.join(", "),
            if db.link_count(lt) > 3 { ", …" } else { "" }
        );
    }
}

/// Fig. 5 — the staged definition of molecule-type operators, traced live.
pub fn fig5() {
    heading("Figure 5 — molecule-type operation pipeline (op-specific → prop → α)");
    let (db, _) = brazil_database().unwrap();
    let mut engine = Engine::new(db);
    engine.enable_tracing();
    let md = path(engine.db().schema(), &["state", "area", "edge", "point"]).unwrap();
    let mt = engine.define("mt_state", md).unwrap();
    let big = engine
        .restrict(&mt, &QualExpr::cmp_const(0, 2, CmpOp::Gt, 700.0))
        .unwrap();
    engine.verify_closure(&big).unwrap();
    print!("{}", engine.trace_log().render());
    println!(
        "result: {} of {} molecules qualify; closure over DB' verified",
        big.len(),
        mt.len()
    );
}

/// §3.1 in-text example — ×(area, edge) = border; σ\[hectare>1000\](border);
/// and the relational equivalents.
pub fn e6_border() {
    heading("E6 — §3.1 example: ×(area,edge)=border, σ[hectare>1000], relational equivalent");
    let (db, h) = brazil_database().unwrap();
    let image = RelationalImage::from_database(&db).unwrap();
    let mut db = db;
    // MAD side: note `area` and `state.hectare` — we product state×area-like
    // types with disjoint descriptions: use state (has hectare) and edge.
    let border = atom_ops::product(&mut db, h.state, h.edge, Some("border")).unwrap();
    let big = atom_ops::restrict(
        &mut db,
        border,
        &AtomPred::cmp(2, CmpOp::Gt, 1000.0),
        Some("big_border"),
    )
    .unwrap();
    println!(
        "MAD:        ×(state, edge) = border with {} atoms; σ[hectare>1000](border) = {} atoms",
        db.atom_count(border),
        db.atom_count(big)
    );
    println!(
        "            border inherits {} link types from its operands",
        db.schema().link_types_of(border).len()
    );
    // relational side
    let s = image.atom_relation(h.state);
    let e = image.atom_relation(h.edge);
    let s2 = rel_alg::rename(s, &[("_id", "_sid")]).unwrap();
    let e2 = rel_alg::rename(e, &[("_id", "_eid")]).unwrap();
    let prod = rel_alg::product(&s2, &e2).unwrap();
    let sel = rel_alg::select(
        &prod,
        &rel_alg::Pred::cmp("hectare", rel_alg::Cmp::Gt, 1000.0),
    )
    .unwrap();
    println!(
        "relational: state × edge = {} tuples; σ[hectare>1000] = {} tuples",
        prod.len(),
        sel.len()
    );
    assert_eq!(prod.len(), db.atom_count(border));
    assert_eq!(sel.len(), db.atom_count(big));
    println!("            counts agree — the atom-type algebra degenerates to the relational algebra");
}

/// §4 in-text examples — the two MQL queries of the paper, end to end.
pub fn e7_mql() {
    heading("E7 — §4 MQL examples");
    let (db, _) = brazil_database().unwrap();
    let mut session = mad_mql::Session::new(db);
    for q in [
        "SELECT ALL FROM mt_state(state-area-edge-point);",
        "SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.pname = 'p0';",
    ] {
        println!("\nMQL> {q}");
        let r = session.execute(q).unwrap();
        match &r {
            mad_mql::StatementResult::Molecules(mt) => {
                println!(
                    "  → molecule type `{}` with {} molecule(s), structure {}",
                    mt.name,
                    mt.len(),
                    mt.structure.render_compact(session.db().schema())
                );
                if let Some(m) = mt.molecules.first() {
                    print!("{}", m.render_tree(session.db(), &mt.structure));
                }
            }
            other => println!("  → {other:?}"),
        }
    }
}

/// §3.2 — Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2)), executed.
pub fn e8_intersection() {
    heading("E8 — §3.2: intersection via double difference");
    let (db, _) = brazil_database().unwrap();
    let mut engine = Engine::new(db);
    let md = path(engine.db().schema(), &["state", "area", "edge"]).unwrap();
    let mt = engine.define("mt_state", md).unwrap();
    // mt1: hectare > 500; mt2: hectare <= 900  → intersection: (500, 900]
    let mt1 = engine
        .restrict(&mt, &QualExpr::cmp_const(0, 2, CmpOp::Gt, 500.0))
        .unwrap();
    let mt2 = engine
        .restrict(&mt, &QualExpr::cmp_const(0, 2, CmpOp::Le, 900.0))
        .unwrap();
    let psi = engine.intersection(&mt1, &mt2, "psi").unwrap();
    println!(
        "Ψ(σ[hectare>500], σ[hectare<=900]) over {} states = {} molecules",
        mt.len(),
        psi.len()
    );
    let direct = mt
        .molecules
        .iter()
        .filter(|m| {
            let h = engine.db().atom(m.root).unwrap()[2].as_float().unwrap();
            h > 500.0 && h <= 900.0
        })
        .count();
    assert_eq!(psi.len(), direct);
    println!("matches the direct count ({direct}); Ψ = Δ(mt1, Δ(mt1, mt2)) confirmed");
}

/// B2 — the NF² duplication table (the §5 sharing claim, measured).
pub fn b2_duplication() {
    heading("B2 — NF² duplication of shared subobjects (parts explosion, depth 4)");
    let mut rows = Vec::new();
    for (share, params) in presets::bom_share_sweep() {
        let (db, h) = generate_bom(&params).unwrap();
        let engine = Engine::new(db);
        // two-level structure repeated: super -> sub (level-at-a-time view)
        let md = StructureBuilder::new(engine.db().schema())
            .node_as("l0", "parts")
            .node_as("l1", "parts")
            .node_as("l2", "parts")
            .edge_directed("composition", "l0", "l1", Direction::Fwd)
            .edge_directed("composition", "l1", "l2", Direction::Fwd)
            .build()
            .unwrap();
        let opts = DeriveOptions {
            roots: Some(h.roots.clone()),
            ..Default::default()
        };
        let molecules = derive_molecules(engine.db(), &md, &opts).unwrap();
        let mt = mad_core::molecule::MoleculeType {
            name: "explosion".into(),
            structure: md,
            molecules,
            attrs: Vec::new(),
        };
        let mat = materialize(engine.db(), &mt).unwrap();
        rows.push(vec![
            format!("{share:.1}"),
            format!("{}", mat.distinct_atoms),
            format!("{}", mat.atom_instances),
            format!("{:.2}", mat.duplication_factor()),
        ]);
    }
    print!(
        "{}",
        table(
            &["share", "MAD atoms (shared)", "NF² instances (copied)", "duplication ×"],
            &rows
        )
    );
    println!("MAD stores each shared part once; the NF² image copies it per parent.");
}

/// §2 claim — the relational transformation needs auxiliary relations.
pub fn claim_auxiliary_relations() {
    heading("§2 claim — auxiliary relations required by the relational mapping");
    let (db, _) = brazil_database().unwrap();
    let image = RelationalImage::from_database(&db).unwrap();
    println!(
        "MAD schema: {} atom types + {} link types (no auxiliary structures)",
        db.schema().atom_type_count(),
        db.schema().link_type_count()
    );
    println!(
        "relational image: {} relations = {} atom relations + {} auxiliary n:m relations",
        image.relation_count(),
        db.schema().atom_type_count(),
        image.auxiliary_count()
    );
    // parts-explosion contrast for the recursion outlook
    let (bom, h) = generate_bom(&mad_workload::BomParams {
        depth: 3,
        width: 20,
        fanout: 2,
        share: 0.5,
        seed: 5,
    })
    .unwrap();
    let spec = RecursiveSpec {
        atom_type: h.parts,
        link: h.composition,
        dir: Direction::Fwd,
        max_depth: None,
    };
    let m = derive_recursive_one(&bom, &spec, h.roots[0]).unwrap();
    println!(
        "\n§5 outlook — recursive molecule (parts explosion of one root): {} parts, depth {}",
        m.size(),
        m.depth()
    );
}
