//! A synthetic oSIP-like library (paper §4.3).
//!
//! The paper unit-tests ~600 externally visible functions of the oSIP
//! library and finds that 65 % of them can be crashed within 1000 runs —
//! almost all through the same defect pattern: "an oSIP function takes as
//! argument a pointer to a data structure and then dereferences that
//! pointer without checking first whether the pointer is non-NULL", with
//! guarding applied *inconsistently* across functions and paths. It also
//! finds one deep, externally controllable crash: `osip_message_parse`
//! copies the message into `alloca(size)` without checking the result, so
//! a > 2.5 MB message makes `alloca` return NULL and the parser crashes.
//!
//! We cannot port 30 kLoC of oSIP, so this module *generates* a library
//! with the same defect distribution (see DESIGN.md). Each generated
//! function carries ground truth ([`Planted`]) so the harness can report
//! detection rates honestly — including the bug classes DART is expected
//! to miss (faults with no guarding branch to direct through, and
//! boundary off-by-ones the solver has no reason to aim at).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Ground truth for one generated function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planted {
    /// No defect: NULL is checked on every path.
    None,
    /// The paper's signature pattern: pointer parameter dereferenced with
    /// no NULL check at all. Found by DART within a couple of runs (the
    /// pointer coin lands NULL half the time).
    UnguardedNullDeref,
    /// NULL checked on the common path, unchecked on a path guarded by an
    /// equality on another argument — random testing essentially never
    /// reaches it; the directed search flips the guard.
    GuardedWrongPath,
    /// An input-gated infinite loop (DART reports non-termination).
    NonTermination,
    /// Division whose zero-divisor case has no guarding branch: no
    /// constraint ever points at it, so DART finds it only by luck.
    BlindDivByZero,
    /// In-bounds check off by one (`<=` instead of `<`): crashes only at
    /// the exact boundary value, which nothing directs the solver toward.
    BoundaryOffByOne,
}

impl Planted {
    /// Whether DART is *expected* to find this defect within a small run
    /// budget (the paper's 1000).
    pub fn expected_found(self) -> bool {
        matches!(
            self,
            Planted::UnguardedNullDeref | Planted::GuardedWrongPath | Planted::NonTermination
        )
    }

    /// Whether a defect exists at all.
    pub fn is_bug(self) -> bool {
        self != Planted::None
    }

    /// The defect class's row label in the E4 detection table.
    pub fn label(self) -> &'static str {
        match self {
            Planted::None => "correctly guarded (no defect)",
            Planted::UnguardedNullDeref => "unguarded NULL deref",
            Planted::GuardedWrongPath => "guard missing on rare path",
            Planted::NonTermination => "input-gated hang",
            Planted::BlindDivByZero => "blind div-by-zero (expected miss)",
            Planted::BoundaryOffByOne => "boundary off-by-one (expected miss)",
        }
    }
}

/// One generated externally visible function.
#[derive(Debug, Clone)]
pub struct OsipFn {
    /// Function name (`osip_…`).
    pub name: String,
    /// Ground truth.
    pub planted: Planted,
}

/// A generated library.
#[derive(Debug, Clone)]
pub struct OsipLibrary {
    /// Complete MiniC source (all functions plus the message parser).
    pub source: String,
    /// The externally visible functions, in source order (excluding the
    /// parser, which is listed last with its own ground truth).
    pub functions: Vec<OsipFn>,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct OsipConfig {
    /// Number of generated API functions (the paper tests ~600).
    pub num_functions: usize,
    /// RNG seed (the library is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for OsipConfig {
    fn default() -> OsipConfig {
        OsipConfig {
            num_functions: 120,
            seed: 0xC0FFEE,
        }
    }
}

/// Generates the library. The defect mix approximates the paper's
/// findings: ~50 % plainly unguarded, ~10 % unguarded on a hard-to-reach
/// path, ~5 % input-gated hangs (≈ 65 % discoverable), ~20 % correctly
/// guarded, and ~10 % planted-but-hard (blind division, boundary) to keep
/// the detection-rate table honest.
pub fn generate(config: OsipConfig) -> OsipLibrary {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut src = String::new();

    // A few message-like structs with 2..=5 int fields.
    let num_structs: usize = 4;
    let mut field_counts = Vec::new();
    for s in 0..num_structs {
        let nf = rng.gen_range(2..=5);
        field_counts.push(nf);
        let _ = write!(src, "struct hdr{s} {{ ");
        for f in 0..nf {
            let _ = write!(src, "int f{f}; ");
        }
        let _ = writeln!(src, "}};");
    }
    let _ = writeln!(src);

    let mut functions = Vec::with_capacity(config.num_functions);
    for i in 0..config.num_functions {
        let roll: f64 = rng.gen();
        let planted = if roll < 0.50 {
            Planted::UnguardedNullDeref
        } else if roll < 0.60 {
            Planted::GuardedWrongPath
        } else if roll < 0.65 {
            Planted::NonTermination
        } else if roll < 0.85 {
            Planted::None
        } else if roll < 0.90 {
            Planted::BlindDivByZero
        } else {
            Planted::BoundaryOffByOne
        };
        let name = format!("osip_fn_{i}");
        let s = rng.gen_range(0..num_structs);
        let nf = field_counts[s];
        let f0 = rng.gen_range(0..nf);
        let f1 = rng.gen_range(0..nf);
        let magic: i64 = rng.gen_range(2..100_000);
        match planted {
            Planted::UnguardedNullDeref => {
                let _ = writeln!(
                    src,
                    r#"int {name}(struct hdr{s} *p, int flags) {{
    int acc = p->f{f0} + flags;      /* no NULL guard (paper's pattern) */
    if (p->f{f1} > 0) acc = acc + p->f{f1};
    return acc;
}}
"#
                );
            }
            Planted::GuardedWrongPath => {
                let _ = writeln!(
                    src,
                    r#"int {name}(struct hdr{s} *p, int mode) {{
    if (mode == {magic}) {{
        return p->f{f0};             /* unguarded on this rare path */
    }}
    if (p == NULL) return -1;
    return p->f{f1};
}}
"#
                );
            }
            Planted::NonTermination => {
                let _ = writeln!(
                    src,
                    r#"int {name}(struct hdr{s} *p, int retries) {{
    if (p == NULL) return -1;
    while (retries == {magic}) {{
        /* lost wakeup: spins forever on this retry count */
    }}
    return p->f{f0};
}}
"#
                );
            }
            Planted::None => {
                let _ = writeln!(
                    src,
                    r#"int {name}(struct hdr{s} *p, int flags) {{
    if (p == NULL) return -1;
    if (flags < 0) return -2;
    if (p->f{f0} > p->f{f1}) return p->f{f0};
    return p->f{f1} + flags;
}}
"#
                );
            }
            Planted::BlindDivByZero => {
                let _ = writeln!(
                    src,
                    r#"int {name}(struct hdr{s} *p, int weight) {{
    if (p == NULL) return -1;
    /* no branch mentions weight == {magic}: nothing to direct toward */
    return p->f{f0} / (weight - {magic});
}}
"#
                );
            }
            Planted::BoundaryOffByOne => {
                let n = rng.gen_range(3..8);
                let _ = writeln!(
                    src,
                    r#"int {name}(int idx) {{
    int buf[{n}];
    int i;
    for (i = 0; i < {n}; i++) buf[i] = i;
    if (idx >= 0 && idx <= {n}) {{   /* off by one: idx == {n} overflows */
        return buf[idx];
    }}
    return -1;
}}
"#
                );
            }
        }
        functions.push(OsipFn { name, planted });
    }

    // The parser with the paper's unchecked-alloca vulnerability.
    let _ = writeln!(
        src,
        r#"struct sip_msg {{ int len; int h0; int h1; int h2; }};

/* The paper's deep bug (§4.3): the message is copied into stack space
   via alloca(size); the result is never checked, so an oversized message
   makes alloca return NULL and the parser crashes on the first store. */
int osip_message_parse(struct sip_msg *m) {{
    if (m == NULL) return -1;
    if (m->len < 4) return -2;       /* too short to be a SIP message */
    int *buf = (int *) alloca(m->len);
    buf[0] = m->h0;                  /* CRASH when alloca failed */
    buf[1] = m->h1;
    buf[2] = m->h2;
    return buf[0];
}}
"#
    );
    functions.push(OsipFn {
        name: "osip_message_parse".into(),
        planted: Planted::UnguardedNullDeref, // unchecked allocation result
    });

    OsipLibrary {
        source: src,
        functions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_minic::compile;

    #[test]
    fn generated_library_compiles() {
        let lib = generate(OsipConfig {
            num_functions: 60,
            seed: 7,
        });
        let compiled =
            compile(&lib.source).unwrap_or_else(|e| panic!("generated library must compile: {e}"));
        for f in &lib.functions {
            assert!(
                compiled.fn_sig(&f.name).is_some(),
                "function {} missing",
                f.name
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(OsipConfig {
            num_functions: 30,
            seed: 9,
        });
        let b = generate(OsipConfig {
            num_functions: 30,
            seed: 9,
        });
        assert_eq!(a.source, b.source);
    }

    #[test]
    fn defect_mix_is_roughly_calibrated() {
        let lib = generate(OsipConfig {
            num_functions: 400,
            seed: 3,
        });
        let expected_found = lib
            .functions
            .iter()
            .filter(|f| f.planted.expected_found())
            .count() as f64
            / lib.functions.len() as f64;
        assert!(
            (0.55..=0.75).contains(&expected_found),
            "discoverable fraction should sit near the paper's 65%, got {expected_found}"
        );
    }

    #[test]
    fn parser_crashes_on_oversized_message_concretely() {
        use dart_ram::{Machine, MachineConfig, StepOutcome, ZeroEnv};
        let lib = generate(OsipConfig {
            num_functions: 1,
            seed: 1,
        });
        let compiled = compile(&lib.source).unwrap();
        let id = compiled.program.func_by_name("osip_message_parse").unwrap();

        // Build a message with a huge length.
        let mut m = Machine::new(&compiled.program, MachineConfig::default());
        let msg = m.mem_mut().alloc_heap(4);
        m.mem_mut().store(msg, 1 << 30).unwrap(); // len: ~1G words
        m.call(id, &[msg]).unwrap();
        let out = m.run(&mut ZeroEnv);
        assert!(
            matches!(out, StepOutcome::Faulted(dart_ram::Fault::NullDeref { .. })),
            "oversized message must crash the parser, got {out:?}"
        );

        // A small message parses fine.
        let mut m = Machine::new(&compiled.program, MachineConfig::default());
        let msg = m.mem_mut().alloc_heap(4);
        m.mem_mut().store(msg, 4).unwrap();
        m.mem_mut().store(msg + 1, 42).unwrap();
        m.call(id, &[msg]).unwrap();
        assert_eq!(
            m.run(&mut ZeroEnv),
            StepOutcome::Finished { value: Some(42) }
        );
    }
}
