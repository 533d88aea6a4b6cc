//! Oracle test for `LinExpr`: random operation sequences are applied both
//! to `LinExpr` and to a reference form that keeps its terms in a
//! `BTreeMap<Var, i64>`, and every observable must agree after every step:
//! the term iteration, coefficients, counts, `Display`, `Debug` (plain and
//! pretty) and the `Hash` value.
//!
//! Variables are drawn from a small range so forms grow past the one
//! inline term and cancel back to it; coefficients include the `i64`
//! extremes so saturation is exercised on every operation.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use dart_solver::{LinExpr, Var};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const NUM_VARS: u32 = 6;

/// The reference: the map-backed form with the old arithmetic. Named
/// `LinExpr` so its derived `Debug` prints the same struct name.
mod reference {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
    pub struct LinExpr {
        pub terms: BTreeMap<Var, i64>,
        pub constant: i64,
    }

    impl LinExpr {
        pub fn from_terms(terms: &[(Var, i64)], constant: i64) -> LinExpr {
            let mut e = LinExpr {
                terms: BTreeMap::new(),
                constant,
            };
            for &(v, c) in terms {
                e.add_term(v, c);
            }
            e
        }

        pub fn add_term(&mut self, v: Var, coeff: i64) {
            if coeff == 0 {
                return;
            }
            let entry = self.terms.entry(v).or_insert(0);
            *entry = entry.saturating_add(coeff);
            if *entry == 0 {
                self.terms.remove(&v);
            }
        }

        pub fn add(&self, other: &LinExpr) -> LinExpr {
            let mut out = self.clone();
            for (&v, &c) in &other.terms {
                out.add_term(v, c);
            }
            out.constant = out.constant.saturating_add(other.constant);
            out
        }

        pub fn sub(&self, other: &LinExpr) -> LinExpr {
            self.add(&other.scaled(-1))
        }

        pub fn scaled(&self, k: i64) -> LinExpr {
            if k == 0 {
                return LinExpr::default();
            }
            LinExpr {
                terms: self
                    .terms
                    .iter()
                    .map(|(&v, &c)| (v, c.saturating_mul(k)))
                    .collect(),
                constant: self.constant.saturating_mul(k),
            }
        }

        pub fn offset(&self, c: i64) -> LinExpr {
            let mut out = self.clone();
            out.constant = out.constant.saturating_add(c);
            out
        }
    }

    impl fmt::Display for LinExpr {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut first = true;
            for (&v, &c) in &self.terms {
                if first {
                    match c {
                        1 => write!(f, "{v}")?,
                        -1 => write!(f, "-{v}")?,
                        _ => write!(f, "{c}*{v}")?,
                    }
                    first = false;
                } else if c == 1 {
                    write!(f, " + {v}")?;
                } else if c >= 0 {
                    write!(f, " + {c}*{v}")?;
                } else if c == -1 {
                    write!(f, " - {v}")?;
                } else {
                    write!(f, " - {}*{v}", c.unsigned_abs())?;
                }
            }
            if first {
                write!(f, "{}", self.constant)
            } else if self.constant > 0 {
                write!(f, " + {}", self.constant)
            } else if self.constant < 0 {
                write!(f, " - {}", self.constant.unsigned_abs())
            } else {
                Ok(())
            }
        }
    }
}

/// One operation of a trace; the binary ones take a second operand built
/// with `from_terms`.
#[derive(Debug, Clone)]
enum Op {
    AddTerm(Var, i64),
    Add(Vec<(Var, i64)>, i64),
    Sub(Vec<(Var, i64)>, i64),
    Scaled(i64),
    Offset(i64),
    FromTerms(Vec<(Var, i64)>, i64),
}

fn coeff() -> impl Strategy<Value = i64> {
    prop_oneof![
        6 => -3i64..=3,
        1 => Just(i64::MAX),
        1 => Just(i64::MIN),
        1 => Just(i64::MIN + 1),
        1 => (1i64 << 40)..=(1i64 << 62),
    ]
}

fn var() -> impl Strategy<Value = Var> {
    (0u32..NUM_VARS).prop_map(Var)
}

fn terms() -> impl Strategy<Value = Vec<(Var, i64)>> {
    proptest::collection::vec((var(), coeff()), 0..5)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (var(), coeff()).prop_map(|(v, c)| Op::AddTerm(v, c)),
        2 => (terms(), coeff()).prop_map(|(t, k)| Op::Add(t, k)),
        2 => (terms(), coeff()).prop_map(|(t, k)| Op::Sub(t, k)),
        1 => coeff().prop_map(Op::Scaled),
        1 => coeff().prop_map(Op::Offset),
        1 => (terms(), coeff()).prop_map(|(t, k)| Op::FromTerms(t, k)),
    ]
}

fn trace() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op(), 1..40)
}

fn apply(e: &LinExpr, r: &reference::LinExpr, op: &Op) -> (LinExpr, reference::LinExpr) {
    match op {
        Op::AddTerm(v, c) => {
            let (mut e, mut r) = (e.clone(), r.clone());
            e.add_term(*v, *c);
            r.add_term(*v, *c);
            (e, r)
        }
        Op::Add(t, k) => (
            e.add(&LinExpr::from_terms(t.iter().copied(), *k)),
            r.add(&reference::LinExpr::from_terms(t, *k)),
        ),
        Op::Sub(t, k) => (
            e.sub(&LinExpr::from_terms(t.iter().copied(), *k)),
            r.sub(&reference::LinExpr::from_terms(t, *k)),
        ),
        Op::Scaled(k) => (e.scaled(*k), r.scaled(*k)),
        Op::Offset(c) => (e.offset(*c), r.offset(*c)),
        Op::FromTerms(t, k) => (
            LinExpr::from_terms(t.iter().copied(), *k),
            reference::LinExpr::from_terms(t, *k),
        ),
    }
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Every observable of `e` against the reference `r`.
fn agrees(e: &LinExpr, r: &reference::LinExpr) -> Result<(), TestCaseError> {
    let want: Vec<(Var, i64)> = r.terms.iter().map(|(&v, &c)| (v, c)).collect();
    prop_assert_eq!(e.iter().collect::<Vec<_>>(), want.clone());
    prop_assert_eq!(
        e.vars().collect::<Vec<_>>(),
        want.iter().map(|&(v, _)| v).collect::<Vec<_>>()
    );
    for v in (0..=NUM_VARS).map(Var) {
        prop_assert_eq!(e.coeff(v), r.terms.get(&v).copied().unwrap_or(0));
    }
    prop_assert_eq!(e.constant(), r.constant);
    prop_assert_eq!(e.num_vars(), r.terms.len());
    prop_assert_eq!(e.is_constant(), r.terms.is_empty());
    prop_assert_eq!(e.to_string(), r.to_string());
    prop_assert_eq!(format!("{e:?}"), format!("{r:?}"));
    prop_assert_eq!(format!("{e:#?}"), format!("{r:#?}"));
    prop_assert_eq!(hash_of(e), hash_of(r), "same hash as the map form");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn linexpr_matches_the_btreemap_reference(ops in trace()) {
        let (mut e, mut r) = (LinExpr::zero(), reference::LinExpr::default());
        agrees(&e, &r)?;
        for op in &ops {
            let (e2, r2) = apply(&e, &r, op);
            agrees(&e2, &r2)?;
            // Eq follows the reference's Eq, and equal forms hash equally.
            prop_assert_eq!(e2 == e, r2 == r, "{:?}", op);
            if e2 == e {
                prop_assert_eq!(hash_of(&e2), hash_of(&e));
            }
            e = e2;
            r = r2;
        }
    }
}

/// The traces above cross the inline/heap boundary both ways and
/// saturate, so the oracle covers every representation change.
#[test]
fn traces_cross_the_inline_boundary_and_saturate() {
    let mut rng = TestRng::deterministic();
    let (mut grew, mut shrank, mut at_limit) = (0, 0, 0);
    let strategy = trace();
    for _ in 0..400 {
        let mut e = LinExpr::zero();
        for op in strategy.gen_value(&mut rng) {
            let (next, _) = apply(&e, &reference::LinExpr::default(), &op);
            match (e.num_vars() <= 1, next.num_vars() <= 1) {
                (true, false) => grew += 1,
                (false, true) => shrank += 1,
                _ => {}
            }
            if next.iter().any(|(_, c)| c == i64::MAX || c == i64::MIN) {
                at_limit += 1;
            }
            e = next;
        }
    }
    assert!(
        grew > 100 && shrank > 100 && at_limit > 100,
        "grew {grew}, shrank {shrank}, at an i64 limit {at_limit}"
    );
}
