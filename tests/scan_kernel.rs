//! Differential test of the selection scan: `Database::slots_where` (and
//! `AtomStore::slots_where` under it) must select exactly the slots that
//! filtering `atoms_of` by `Value::sql_cmp` selects, for every comparison
//! operator and every needle. Tuples of arity 0, 1 and 3 span at least four
//! copy-on-write chunks with random tombstones (sometimes a whole chunk
//! dead); the values cover every kind, with the floats where a typed
//! comparison could part from `sql_cmp`: `±0.0`, NaN of both signs, `±inf`,
//! integral floats and integers beyond 2^53.

use mad::model::{AtomId, AtomTypeId, AttrType, CmpOp, SchemaBuilder, Value};
use mad::storage::{AtomStore, Database, CHUNK};
use proptest::prelude::*;
use proptest::TestRng;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Every value a tuple or a needle may hold.
fn pool() -> Vec<Value> {
    let mut v = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
    v.extend(
        [0, 1, -1, 3, i64::MAX, i64::MIN, (1 << 53) + 1, 1 << 53]
            .into_iter()
            .map(Value::Int),
    );
    v.extend(
        [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            3.0,
            -1.0,
            2.5,
            9_007_199_254_740_992.0,
            1e300,
        ]
        .into_iter()
        .map(Value::Float),
    );
    v.extend(
        ["", "a", "ab", "b", "S1", "S10", "é"]
            .into_iter()
            .map(Value::from),
    );
    v.extend([AtomId::new(AtomTypeId(0), 0), AtomId::new(AtomTypeId(2), 7)].map(Value::Id));
    v
}

/// The reference: the live tuples of `atoms` whose `attr` satisfies
/// `op needle` under `sql_cmp`, as slots in iteration order.
fn reference<'a>(
    atoms: impl Iterator<Item = (u32, &'a [Value])>,
    attr: usize,
    op: CmpOp,
    needle: &Value,
) -> Vec<u32> {
    atoms
        .filter(|(_, t)| {
            t.get(attr)
                .and_then(|v| v.sql_cmp(needle))
                .is_some_and(|o| op.test(o))
        })
        .map(|(slot, _)| slot)
        .collect()
}

/// A slot count spanning at least four chunks.
fn rows(rng: &mut TestRng) -> usize {
    3 * CHUNK + 1 + rng.below(3 * CHUNK as u64) as usize
}

/// The slots to tombstone: each with probability 1/4, and sometimes every
/// slot of chunk 1, so a chunk with an empty live mask is scanned too.
fn tombstones(rng: &mut TestRng, n: usize) -> Vec<u32> {
    let whole_chunk = rng.below(3) == 0;
    (0..n)
        .filter(|&s| rng.below(4) == 0 || (whole_chunk && s / CHUNK == 1))
        .map(|s| s as u32)
        .collect()
}

fn pick<'a>(rng: &mut TestRng, from: &'a [Value]) -> &'a Value {
    &from[rng.below(from.len() as u64) as usize]
}

/// The atom types of the typed test: arity 0, each domain at arity 1, and
/// two arity-3 types.
fn typed_schema() -> Vec<(&'static str, Vec<AttrType>)> {
    use AttrType::*;
    vec![
        ("nil", vec![]),
        ("i", vec![Int]),
        ("f", vec![Float]),
        ("t", vec![Text]),
        ("b", vec![Bool]),
        ("d", vec![Id]),
        ("ift", vec![Int, Float, Text]),
        ("fdb", vec![Float, Id, Bool]),
    ]
}

fn check_all(
    scan: impl Fn(usize, CmpOp, &Value) -> Vec<u32>,
    expected: impl Fn(usize, CmpOp, &Value) -> Vec<u32>,
    arity: usize,
    what: &str,
) -> Result<(), TestCaseError> {
    // one attribute past the arity: nothing qualifies
    for attr in 0..=arity {
        for op in OPS {
            for needle in &pool() {
                prop_assert_eq!(
                    scan(attr, op, needle),
                    expected(attr, op, needle),
                    "{} attr {} {} {:?}",
                    what,
                    attr,
                    op,
                    needle
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Typed columns through the database: each value conforms to its
    /// attribute's domain (an `Int` stored in a `Float` column is coerced)
    /// or is null, and some tuples are updated after the deletes.
    #[test]
    fn database_scan_matches_sql_cmp_filter(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let types = typed_schema();
        let mut builder = SchemaBuilder::new();
        for (name, kinds) in &types {
            let attrs: Vec<(String, AttrType)> =
                kinds.iter().enumerate().map(|(i, k)| (format!("a{i}"), *k)).collect();
            let attrs: Vec<(&str, AttrType)> =
                attrs.iter().map(|(n, k)| (n.as_str(), *k)).collect();
            builder = builder.atom_type(name, &attrs);
        }
        let mut db = Database::new(builder.build().unwrap());
        let pool = pool();
        for (name, kinds) in &types {
            let ty = db.schema().atom_type_id(name).unwrap();
            let domain = |k: AttrType| -> Vec<Value> {
                pool.iter().filter(|v| v.conforms_to(k)).cloned().collect()
            };
            let domains: Vec<Vec<Value>> = kinds.iter().map(|&k| domain(k)).collect();
            let n = rows(&mut rng);
            for _ in 0..n {
                let tuple = domains.iter().map(|d| pick(&mut rng, d).clone()).collect();
                db.insert_atom(ty, tuple).unwrap();
            }
            for slot in tombstones(&mut rng, n) {
                db.delete_atom(AtomId::new(ty, slot)).unwrap();
            }
            for _ in 0..8 {
                let id = AtomId::new(ty, rng.below(n as u64) as u32);
                if let (true, Some(k)) = (db.atom_exists(id), kinds.first()) {
                    db.update_attr(id, 0, pick(&mut rng, &domain(*k)).clone()).unwrap();
                }
            }
            check_all(
                |attr, op, needle| db.slots_where(ty, attr, op, needle),
                |attr, op, needle| {
                    reference(db.atoms_of(ty).map(|(id, t)| (id.slot, t)), attr, op, needle)
                },
                kinds.len(),
                name,
            )?;
        }
    }

    /// Untyped columns through the store: every column mixes every kind,
    /// so each typed path meets values of the other kinds.
    #[test]
    fn store_scan_matches_sql_cmp_filter_on_mixed_columns(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let pool = pool();
        for arity in [0, 1, 3] {
            let mut store = AtomStore::new(arity);
            let n = rows(&mut rng);
            for _ in 0..n {
                store.insert((0..arity).map(|_| pick(&mut rng, &pool).clone()).collect());
            }
            for slot in tombstones(&mut rng, n) {
                prop_assert!(store.remove(slot).is_some());
            }
            prop_assert_eq!(store.iter().count(), store.len());
            check_all(
                |attr, op, needle| store.slots_where(attr, op, needle),
                |attr, op, needle| reference(store.iter(), attr, op, needle),
                arity,
                "mixed",
            )?;
        }
    }
}
