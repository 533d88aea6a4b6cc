//! Linear expressions over solver variables with `i64` coefficients.
//!
//! DART's symbolic layer only ever produces *linear* forms (everything else
//! falls back to concrete evaluation — the `all_linear` completeness flag of
//! the paper), so a linear expression plus a relational operator is the whole
//! constraint language.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A solver variable, identified by a dense index.
///
/// In DART, every variable corresponds to one *input memory location* (§3.1
/// of the paper: "inputs to a C program are defined as memory locations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The `(var, coeff)` terms of a [`LinExpr`]: sorted by variable, no zero
/// coefficients. Nearly every non-constant form on a DART path mentions a
/// single input (`x0 - 10`), so one term lives in place and never
/// allocates; longer sequences live in a `Vec`. The variant follows from
/// the length alone (heap iff more than one term), so a form that cancels
/// back to one term moves inline again.
#[derive(Clone)]
enum Terms {
    Inline(Option<(Var, i64)>),
    Heap(Vec<(Var, i64)>),
}

impl Terms {
    const EMPTY: Terms = Terms::Inline(None);

    fn as_slice(&self) -> &[(Var, i64)] {
        match self {
            Terms::Inline(t) => t.as_slice(),
            Terms::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(Var, i64)] {
        match self {
            Terms::Inline(t) => t.as_mut_slice(),
            Terms::Heap(v) => v,
        }
    }

    /// Collects an already sorted, zero-free sequence of at most `max`
    /// terms; `max` sizes the `Vec` if the sequence spills.
    fn collect(iter: impl Iterator<Item = (Var, i64)>, max: usize) -> Terms {
        let mut out = Terms::EMPTY;
        for t in iter {
            out.insert(out.as_slice().len(), t, max);
        }
        out
    }

    /// Inserts `t` at position `i`, spilling to a `Vec` of capacity at
    /// least `cap` when the inline slot is taken.
    fn insert(&mut self, i: usize, t: (Var, i64), cap: usize) {
        match self {
            Terms::Inline(slot @ None) => *slot = Some(t),
            Terms::Inline(Some(u)) => {
                let mut v = Vec::with_capacity(cap.max(4));
                v.push(*u);
                v.insert(i, t);
                *self = Terms::Heap(v);
            }
            Terms::Heap(v) => v.insert(i, t),
        }
    }

    fn remove(&mut self, i: usize) {
        match self {
            Terms::Inline(t) => *t = None,
            Terms::Heap(v) => {
                v.remove(i);
                if let [t] = v[..] {
                    *self = Terms::Inline(Some(t));
                }
            }
        }
    }
}

impl Default for Terms {
    fn default() -> Terms {
        Terms::EMPTY
    }
}

/// A linear expression `sum(coeff_i * var_i) + constant` with exact `i64`
/// coefficients. Terms are kept sorted by variable and never store zeros.
///
/// # Examples
///
/// ```
/// use dart_solver::linear::{LinExpr, Var};
///
/// // 2*x0 - x1 + 7
/// let e = LinExpr::var(Var(0)).scaled(2).add(&LinExpr::var(Var(1)).scaled(-1)).offset(7);
/// assert_eq!(e.coeff(Var(0)), 2);
/// assert_eq!(e.constant(), 7);
/// ```
#[derive(Clone, Default)]
pub struct LinExpr {
    terms: Terms,
    constant: i64,
}

impl PartialEq for LinExpr {
    fn eq(&self, other: &LinExpr) -> bool {
        self.terms.as_slice() == other.terms.as_slice() && self.constant == other.constant
    }
}

impl Eq for LinExpr {}

/// Hashes exactly what a `BTreeMap<Var, i64>` of the terms followed by the
/// constant would: the term count, each `(var, coeff)`, then the constant.
impl Hash for LinExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.terms.as_slice().hash(state);
        self.constant.hash(state);
    }
}

/// Prints the terms as a map, e.g. `LinExpr { terms: {Var(0): 1}, constant: 0 }`.
impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct TermMap<'a>(&'a [(Var, i64)]);
        impl fmt::Debug for TermMap<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(v, c)| (v, c)))
                    .finish()
            }
        }
        f.debug_struct("LinExpr")
            .field("terms", &TermMap(self.terms.as_slice()))
            .field("constant", &self.constant)
            .finish()
    }
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant_expr(c: i64) -> LinExpr {
        LinExpr {
            terms: Terms::EMPTY,
            constant: c,
        }
    }

    /// The expression consisting of a single variable with coefficient 1.
    pub fn var(v: Var) -> LinExpr {
        LinExpr {
            terms: Terms::collect(std::iter::once((v, 1)), 1),
            constant: 0,
        }
    }

    /// Builds an expression from `(var, coeff)` pairs and a constant.
    /// Zero coefficients are dropped; duplicate variables are summed.
    pub fn from_terms<I: IntoIterator<Item = (Var, i64)>>(iter: I, constant: i64) -> LinExpr {
        let mut e = LinExpr::constant_expr(constant);
        for (v, c) in iter {
            e.add_term(v, c);
        }
        e
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Var) -> i64 {
        let terms = self.terms.as_slice();
        match terms.binary_search_by_key(&v, |&(u, _)| u) {
            Ok(i) => terms[i].1,
            Err(_) => 0,
        }
    }

    /// The constant term.
    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// Whether the expression mentions no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.as_slice().is_empty()
    }

    /// Number of variables with nonzero coefficient.
    pub fn num_vars(&self) -> usize {
        self.terms.as_slice().len()
    }

    /// Iterates over `(var, coeff)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, i64)> + '_ {
        self.terms.as_slice().iter().copied()
    }

    /// The set of variables mentioned, in order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.as_slice().iter().map(|&(v, _)| v)
    }

    /// Adds `coeff * v` in place, dropping the term if it cancels to zero.
    /// Saturates on `i64` overflow (overflowed constraints are later caught by
    /// the exact simplex as `Unknown`; saturation merely keeps this type total).
    pub fn add_term(&mut self, v: Var, coeff: i64) {
        if coeff == 0 {
            return;
        }
        match self.terms.as_slice().binary_search_by_key(&v, |&(u, _)| u) {
            Ok(i) => {
                let c = &mut self.terms.as_mut_slice()[i].1;
                *c = c.saturating_add(coeff);
                if *c == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (v, coeff), 0),
        }
    }

    /// Returns `self + other`.
    #[must_use]
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, 1)
    }

    /// Returns `self - other`.
    #[must_use]
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, -1)
    }

    /// `self + other.scaled(k)` for a nonzero `k`, as one merge of the two
    /// sorted term sequences. Each coefficient of `other` saturates when
    /// scaled and again when added, exactly as the two steps would.
    fn add_scaled(&self, other: &LinExpr, k: i64) -> LinExpr {
        let (a, b) = (self.terms.as_slice(), other.terms.as_slice());
        let (mut i, mut j) = (0, 0);
        let merged = std::iter::from_fn(|| loop {
            let (x, y) = (a.get(i), b.get(j));
            let order = match (x, y) {
                (Some(x), Some(y)) => x.0.cmp(&y.0),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => return None,
            };
            match order {
                Ordering::Less => {
                    i += 1;
                    return x.copied();
                }
                Ordering::Greater => {
                    j += 1;
                    return y.map(|&(v, c)| (v, c.saturating_mul(k)));
                }
                Ordering::Equal => {
                    let (&(v, c), &(_, d)) = (x?, y?);
                    i += 1;
                    j += 1;
                    let sum = c.saturating_add(d.saturating_mul(k));
                    if sum != 0 {
                        return Some((v, sum));
                    }
                }
            }
        });
        LinExpr {
            terms: Terms::collect(merged, a.len() + b.len()),
            constant: self
                .constant
                .saturating_add(other.constant.saturating_mul(k)),
        }
    }

    /// Returns `self * k`.
    #[must_use]
    pub fn scaled(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        // A nonzero coefficient times a nonzero `k` saturates, never to 0.
        let mut terms = self.terms.clone();
        for (_, c) in terms.as_mut_slice() {
            *c = c.saturating_mul(k);
        }
        LinExpr {
            terms,
            constant: self.constant.saturating_mul(k),
        }
    }

    /// Returns `self + c`.
    #[must_use]
    pub fn offset(&self, c: i64) -> LinExpr {
        let mut out = self.clone();
        out.constant = out.constant.saturating_add(c);
        out
    }

    /// Evaluates the expression under an assignment, as `i128` to avoid
    /// intermediate overflow; variables absent from `lookup` evaluate as 0.
    pub fn eval_with<F: Fn(Var) -> Option<i64>>(&self, lookup: F) -> i128 {
        let mut acc = self.constant as i128;
        for (v, c) in self.iter() {
            let val = lookup(v).unwrap_or(0) as i128;
            acc += c as i128 * val;
        }
        acc
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.iter() {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}*{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}*{v}", c.unsigned_abs())?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", self.constant.unsigned_abs())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Var {
        Var(0)
    }
    fn y() -> Var {
        Var(1)
    }

    #[test]
    fn var_and_constant() {
        let e = LinExpr::var(x()).offset(3);
        assert_eq!(e.coeff(x()), 1);
        assert_eq!(e.coeff(y()), 0);
        assert_eq!(e.constant(), 3);
        assert!(!e.is_constant());
        assert!(LinExpr::constant_expr(9).is_constant());
    }

    #[test]
    fn cancellation_drops_terms() {
        let e = LinExpr::var(x()).sub(&LinExpr::var(x()));
        assert!(e.is_constant());
        assert_eq!(e.num_vars(), 0);
    }

    #[test]
    fn from_terms_sums_duplicates() {
        let e = LinExpr::from_terms([(x(), 2), (x(), 3), (y(), 0)], -1);
        assert_eq!(e.coeff(x()), 5);
        assert_eq!(e.num_vars(), 1);
        assert_eq!(e.constant(), -1);
    }

    #[test]
    fn scaling() {
        let e = LinExpr::from_terms([(x(), 2), (y(), -1)], 4).scaled(-3);
        assert_eq!(e.coeff(x()), -6);
        assert_eq!(e.coeff(y()), 3);
        assert_eq!(e.constant(), -12);
        assert_eq!(e.scaled(0), LinExpr::zero());
    }

    #[test]
    fn evaluation() {
        let e = LinExpr::from_terms([(x(), 2), (y(), -1)], 10);
        let val = e.eval_with(|v| if v == x() { Some(3) } else { Some(4) });
        assert_eq!(val, 2 * 3 - 4 + 10);
        // Missing variables default to 0.
        assert_eq!(e.eval_with(|_| None), 10);
    }

    #[test]
    fn display_formatting() {
        let e = LinExpr::from_terms([(x(), 1), (y(), -2)], -7);
        assert_eq!(e.to_string(), "x0 - 2*x1 - 7");
        assert_eq!(LinExpr::constant_expr(0).to_string(), "0");
        assert_eq!(LinExpr::var(y()).scaled(-1).to_string(), "-x1");
    }
}
