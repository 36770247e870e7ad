//! Model test for the copy-on-write fork: random inserts, deletes,
//! attribute updates, connects and disconnects go to a fork and,
//! interleaved, to its origin, and after every step both images must match
//! a `BTreeMap` reference model of their own — atoms, tombstones, links in
//! both directions and the CSR snapshot. The populated slots
//! straddle the copy-on-write chunk boundaries, one link type is reflexive and
//! carries self-links, and at the end the fork's ops are replayed onto the
//! origin's later image, the shape of a rebase under the commit ticket.

use mad::model::{AtomId, AtomTypeId, AttrType, LinkTypeId, SchemaBuilder, Value};
use mad::storage::database::Direction;
use mad::storage::{Database, CHUNK};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Atom types `a` (0) and `b` (1); link types `ab` (0, a → b) and the
/// reflexive `aa` (1, a → a).
const TYPES: [AtomTypeId; 2] = [AtomTypeId(0), AtomTypeId(1)];
const LINKS: [LinkTypeId; 2] = [LinkTypeId(0), LinkTypeId(1)];
const K: u32 = CHUNK as u32;
/// Slots the base image populates: four chunks and two slots of a fifth.
const BASE: u32 = 4 * K + 2;
/// Slots next to the chunk boundaries, where a copy could go wrong.
const EDGES: [u32; 13] = [
    0,
    1,
    K - 1,
    K,
    K + 1,
    2 * K - 1,
    2 * K,
    2 * K + 1,
    4 * K - 1,
    4 * K,
    4 * K + 1,
    BASE,
    BASE + 1,
];

#[derive(Clone, Debug)]
enum Op {
    Insert(usize, i64),
    Delete(usize, u32),
    Update(usize, u32, i64),
    Connect(usize, u32, u32),
    Disconnect(usize, u32, u32),
}

fn slot() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
        0u32..BASE + 10
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0i64..20).prop_map(|(t, v)| Op::Insert(t, v)),
        (0usize..2, slot()).prop_map(|(t, s)| Op::Delete(t, s)),
        (0usize..2, slot(), 0i64..20).prop_map(|(t, s, v)| Op::Update(t, s, v)),
        (0usize..2, slot(), slot()).prop_map(|(l, x, y)| Op::Connect(l, x, y)),
        (0usize..2, slot(), slot()).prop_map(|(l, x, y)| Op::Disconnect(l, x, y)),
    ]
}

/// The reference: per atom type its live tuples by slot and its slot
/// horizon, per link type its oriented pairs.
#[derive(Clone, Debug, Default)]
struct Model {
    atoms: [BTreeMap<u32, Vec<Value>>; 2],
    slots: [u32; 2],
    links: [BTreeSet<(AtomId, AtomId)>; 2],
}

/// The endpoint atom types of link type `l`.
fn ends(l: usize) -> [AtomTypeId; 2] {
    [TYPES[0], TYPES[1 - l]]
}

fn tuple(v: i64) -> Vec<Value> {
    vec![Value::Int(v), Value::Text(format!("t{v}"))]
}

/// Apply `op` to the database and the model; the database's answer must be
/// the one the model predicts. Returns whether the op took effect.
fn apply(db: &mut Database, m: &mut Model, op: &Op) -> bool {
    match *op {
        Op::Insert(t, v) => {
            let id = db.insert_atom(TYPES[t], tuple(v)).unwrap();
            assert_eq!(id.slot, m.slots[t], "slots are handed out in order");
            m.atoms[t].insert(id.slot, tuple(v));
            m.slots[t] += 1;
            true
        }
        Op::Delete(t, s) => {
            let id = AtomId::new(TYPES[t], s);
            let got = db.delete_atom(id);
            if m.atoms[t].remove(&s).is_none() {
                assert!(got.is_err(), "deleting a dead atom {id} must fail");
                return false;
            }
            let mut cascaded = 0;
            for links in &mut m.links {
                let before = links.len();
                links.retain(|&(x, y)| x != id && y != id);
                cascaded += before - links.len();
            }
            assert_eq!(got.unwrap(), cascaded, "cascade of {id}");
            true
        }
        Op::Update(t, s, v) => {
            let id = AtomId::new(TYPES[t], s);
            let got = db.update_attr(id, 0, Value::Int(v));
            match m.atoms[t].get_mut(&s) {
                Some(row) => {
                    got.unwrap();
                    row[0] = Value::Int(v);
                    true
                }
                None => {
                    assert!(got.is_err(), "updating a dead atom {id} must fail");
                    false
                }
            }
        }
        Op::Connect(l, x, y) => {
            let [t0, t1] = ends(l);
            let (a, b) = (AtomId::new(t0, x), AtomId::new(t1, y));
            let got = db.connect(LINKS[l], a, b);
            let live = |id: AtomId| m.atoms[id.ty.0 as usize].contains_key(&id.slot);
            if !(live(a) && live(b)) {
                assert!(got.is_err(), "connecting a dead atom must fail");
                return false;
            }
            let added = m.links[l].insert((a, b));
            assert_eq!(got.unwrap(), added);
            added
        }
        Op::Disconnect(l, x, y) => {
            let [t0, t1] = ends(l);
            let (a, b) = (AtomId::new(t0, x), AtomId::new(t1, y));
            let removed = m.links[l].remove(&(a, b));
            assert_eq!(db.disconnect(LINKS[l], a, b).unwrap(), removed);
            removed
        }
    }
}

/// Everything observable about `db` must equal the model.
fn check(db: &Database, m: &Model, what: &str) {
    for (t, ty) in TYPES.into_iter().enumerate() {
        let got: Vec<(u32, Vec<Value>)> = db
            .atoms_of(ty)
            .map(|(id, row)| (id.slot, row.to_vec()))
            .collect();
        let want: Vec<(u32, Vec<Value>)> = m.atoms[t]
            .iter()
            .map(|(&s, row)| (s, row.clone()))
            .collect();
        assert_eq!(got, want, "{what}: atoms of type {t} in slot order");
        assert_eq!(db.atom_count(ty), m.atoms[t].len(), "{what}");
        assert_eq!(
            db.atom_slot_count(ty),
            m.slots[t] as usize,
            "{what}: slot horizon"
        );
        for s in EDGES {
            let id = AtomId::new(ty, s);
            assert_eq!(
                db.atom_exists(id),
                m.atoms[t].contains_key(&s),
                "{what}: {id}"
            );
        }
    }
    let snap = db.csr_snapshot();
    for (l, lt) in LINKS.into_iter().enumerate() {
        let got: Vec<(AtomId, AtomId)> = db.links_of(lt).collect();
        let want: Vec<(AtomId, AtomId)> = m.links[l].iter().copied().collect();
        assert_eq!(got, want, "{what}: links of {l} in sorted order");
        assert_eq!(db.link_count(lt), want.len(), "{what}");
        let mut fwd: BTreeMap<AtomId, Vec<AtomId>> = BTreeMap::new();
        let mut bwd: BTreeMap<AtomId, Vec<AtomId>> = BTreeMap::new();
        for &(a, b) in &want {
            fwd.entry(a).or_default().push(b);
            bwd.entry(b).or_default().push(a);
        }
        for v in bwd.values_mut() {
            v.sort_unstable();
        }
        let [t0, t1] = ends(l);
        for (side, (ty, map, dir)) in [(t0, &fwd, Direction::Fwd), (t1, &bwd, Direction::Bwd)]
            .into_iter()
            .enumerate()
        {
            for &s in m.atoms[ty.0 as usize].keys() {
                let id = AtomId::new(ty, s);
                let want = map.get(&id).map_or(&[][..], Vec::as_slice);
                assert_eq!(
                    db.partners(lt, id, dir),
                    want,
                    "{what}: side {side} of {id}"
                );
                let slots: Vec<u32> = want.iter().map(|p| p.slot).collect();
                assert_eq!(
                    snap.adjacency(lt, dir).partners_of(s),
                    slots,
                    "{what}: CSR {id}"
                );
            }
        }
    }
    assert!(db.audit_referential_integrity().is_empty(), "{what}");
}

/// The image the fork is taken from: `BASE` atoms of each type with a
/// tombstone in the second chunk, links across chunk boundaries and
/// self-links on the reflexive type.
fn base() -> (Database, Model) {
    let schema = SchemaBuilder::new()
        .atom_type("a", &[("v", AttrType::Int), ("t", AttrType::Text)])
        .atom_type("b", &[("w", AttrType::Int), ("u", AttrType::Text)])
        .link_type("ab", "a", "b")
        .link_type("aa", "a", "a")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    let mut m = Model::default();
    for i in 0..BASE {
        for t in 0..2 {
            apply(&mut db, &mut m, &Op::Insert(t, i64::from(i % 20)));
        }
    }
    for i in (0..BASE).step_by(3) {
        apply(&mut db, &mut m, &Op::Connect(0, i, (i * 7) % BASE));
        apply(&mut db, &mut m, &Op::Connect(1, i, (i * 5) % BASE));
    }
    for s in [0, K, 4 * K - 1] {
        apply(&mut db, &mut m, &Op::Connect(1, s, s));
    }
    apply(&mut db, &mut m, &Op::Delete(1, 2 * K + 3));
    (db, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fork_and_origin_each_match_their_model(
        ops in prop::collection::vec((any::<bool>(), op()), 1..60),
    ) {
        let (mut origin, mut origin_m) = base();
        check(&origin, &origin_m, "base");
        let mut fork = origin.clone();
        let mut fork_m = origin_m.clone();
        let mut fork_log = Vec::new();
        for (step, (to_fork, op)) in ops.iter().enumerate() {
            if *to_fork {
                if apply(&mut fork, &mut fork_m, op) {
                    fork_log.push(op.clone());
                }
            } else {
                apply(&mut origin, &mut origin_m, op);
            }
            check(&fork, &fork_m, &format!("fork after step {step} {op:?}"));
            check(&origin, &origin_m, &format!("origin after step {step} {op:?}"));
        }
        // rebase: replay the fork's effective ops onto the origin's later
        // image; a replayed op the later image refuses is refused by the
        // model too
        let mut rebased = origin.clone();
        let mut rebased_m = origin_m.clone();
        for op in &fork_log {
            apply(&mut rebased, &mut rebased_m, op);
            check(&rebased, &rebased_m, &format!("rebase of {op:?}"));
        }
        check(&origin, &origin_m, "origin after the rebase");
        prop_assert_eq!(rebased.total_atoms(), rebased_m.atoms[0].len() + rebased_m.atoms[1].len());
    }
}
