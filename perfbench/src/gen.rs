//! Seeded input generation: documents, the exec-warm mix, the
//! translate-cold query stream and the serve-http request mix. Every
//! generator is a pure function of its seed.

use std::collections::{BTreeSet, HashSet};

use x2s_dtd::Dtd;
use x2s_xml::rng::SplitMix64;
use x2s_xml::{Generator, GeneratorConfig, Tree};
use x2s_xpath::{parse_xpath, SatAnalyzer};

/// Derive an independent stream seed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// A generated document of about `target` elements (IBM-generator shape
/// `xl` levels, `xr` repeats). Starred roots can die out early for an
/// unlucky seed, so seeds are retried until the tree reaches half the
/// target.
pub fn document(dtd: &Dtd, (xl, xr, target): (usize, usize, usize), seed: u64) -> Tree {
    let make = |attempt: u64| {
        let cfg = GeneratorConfig::shaped(xl, xr, Some(target)).with_seed(sub_seed(seed, attempt));
        Generator::new(dtd, cfg).generate()
    };
    (0..32)
        .map(make)
        .find(|t| t.len() >= target / 2)
        .unwrap_or_else(|| make(0))
}

/// A Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Draw an index in `0..n` with Zipf-like weights `1 / (rank + 1)`.
pub fn zipf(n: usize, rng: &mut SplitMix64) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
    for r in 0..n {
        x -= 1.0 / (r + 1) as f64;
        if x < 0.0 {
            return r;
        }
    }
    n - 1
}

/// A DTD's element graph, indexed by element id.
pub struct Graph {
    names: Vec<String>,
    children: Vec<BTreeSet<usize>>,
    /// Proper descendants (transitive closure of `children`).
    reach: Vec<BTreeSet<usize>>,
    root: usize,
}

impl Graph {
    /// The element graph of `dtd`.
    pub fn of(dtd: &Dtd) -> Graph {
        let n = dtd.len();
        let mut names = vec![String::new(); n];
        let mut children = vec![BTreeSet::new(); n];
        for id in dtd.ids() {
            names[id.index()] = dtd.name(id).to_string();
            for (child, _) in dtd.content(id).child_occurrences() {
                children[id.index()].insert(child.index());
            }
        }
        let reach = (0..n)
            .map(|start| {
                let mut seen = BTreeSet::new();
                let mut stack: Vec<usize> = children[start].iter().copied().collect();
                while let Some(x) = stack.pop() {
                    if seen.insert(x) {
                        stack.extend(children[x].iter().copied());
                    }
                }
                seen
            })
            .collect();
        Graph {
            names,
            children,
            reach,
            root: dtd.root().index(),
        }
    }

    fn union_of(sets: &[BTreeSet<usize>], ctx: &BTreeSet<usize>) -> Vec<usize> {
        let all: BTreeSet<usize> = ctx.iter().flat_map(|&c| sets[c].iter().copied()).collect();
        all.into_iter().collect()
    }

    fn pick(&self, cands: &[usize], rng: &mut SplitMix64) -> usize {
        cands[rng.gen_range(0..cands.len())]
    }

    /// One qualifier atom over the context: a child or descendant path.
    fn atom(&self, ctx: &BTreeSet<usize>, rng: &mut SplitMix64) -> Option<String> {
        if rng.gen_bool(0.5) {
            let kids = Graph::union_of(&self.children, ctx);
            (!kids.is_empty()).then(|| self.names[self.pick(&kids, rng)].clone())
        } else {
            let desc = Graph::union_of(&self.reach, ctx);
            (!desc.is_empty()).then(|| format!("//{}", self.names[self.pick(&desc, rng)]))
        }
    }

    /// A qualifier: an atom, a conjunction or disjunction of two distinct
    /// atoms, or a negated atom.
    fn qualifier(&self, ctx: &BTreeSet<usize>, rng: &mut SplitMix64) -> Option<String> {
        let a = self.atom(ctx, rng)?;
        match rng.gen_range(0..4) {
            0 | 1 => Some(a),
            2 => match self.atom(ctx, rng) {
                Some(b) if b != a => {
                    let op = if rng.gen_bool(0.5) { "and" } else { "or" };
                    Some(format!("{a} {op} {b}"))
                }
                _ => Some(a),
            },
            _ => Some(format!("not {a}")),
        }
    }

    /// A random walk from the root along the DTD graph, 1–4 child or
    /// descendant steps, some steps a two-label union, some qualified.
    /// With `unsat`, a child step along an edge the DTD lacks is inserted
    /// at a random step boundary, which makes the query statically empty.
    pub fn walk(&self, rng: &mut SplitMix64, unsat: bool) -> String {
        // contexts[k] is the set of element types reached after k steps
        let mut contexts = vec![BTreeSet::from([self.root])];
        let mut steps: Vec<String> = Vec::new();
        for _ in 0..rng.gen_range(1..=4) {
            let ctx = contexts.last().expect("walk starts at the root");
            let descendant = rng.gen_bool(0.45);
            let cands = if descendant {
                Graph::union_of(&self.reach, ctx)
            } else {
                Graph::union_of(&self.children, ctx)
            };
            if cands.is_empty() {
                break;
            }
            let first = self.pick(&cands, rng);
            let second = self.pick(&cands, rng);
            let (label, next) = if second != first && rng.gen_bool(0.15) {
                (
                    format!("({} | {})", self.names[first], self.names[second]),
                    BTreeSet::from([first, second]),
                )
            } else {
                (self.names[first].clone(), BTreeSet::from([first]))
            };
            let qual = if rng.gen_bool(0.3) {
                self.qualifier(&next, rng)
                    .map(|q| format!("[{q}]"))
                    .unwrap_or_default()
            } else {
                String::new()
            };
            let axis = if descendant { "//" } else { "/" };
            steps.push(format!("{axis}{label}{qual}"));
            contexts.push(next);
        }
        if unsat {
            // Step boundaries whose context lacks an edge to some type; the
            // root's boundary qualifies whenever the root does not have
            // every type as a child, as in every sample DTD.
            let options: Vec<(usize, Vec<usize>)> = contexts
                .iter()
                .enumerate()
                .map(|(k, ctx)| {
                    let kids = Graph::union_of(&self.children, ctx);
                    let bad = (0..self.names.len())
                        .filter(|x| !kids.contains(x))
                        .collect();
                    (k, bad)
                })
                .filter(|(_, bad): &(usize, Vec<usize>)| !bad.is_empty())
                .collect();
            let (k, bad) = &options[rng.gen_range(0..options.len())];
            let label = &self.names[self.pick(bad, rng)];
            steps.insert(*k, format!("/{label}"));
        }
        let mut q = self.names[self.root].clone();
        for s in steps {
            q.push_str(&s);
        }
        q
    }
}

/// One query of the translate-cold stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColdQuery {
    /// Index into the workload's DTD list.
    pub dtd: usize,
    /// The query text.
    pub text: String,
    /// Made unsatisfiable by construction.
    pub unsat: bool,
}

/// The translate-cold stream over `dtds`: every fifth query
/// (`i % 5 == 4`) is unsatisfiable by construction. Queries never repeat:
/// a satisfiable query is dropped when its DTD-aware normal form (the plan
/// cache key) was already drawn, an unsatisfiable one when its text was.
pub struct ColdStream<'d> {
    graphs: Vec<Graph>,
    sats: Vec<SatAnalyzer<'d>>,
    rng: SplitMix64,
    seen: HashSet<(usize, bool, String)>,
    drawn: usize,
}

impl<'d> ColdStream<'d> {
    /// The stream for `seed`.
    pub fn new(dtds: &[&'d Dtd], seed: u64) -> Self {
        ColdStream {
            graphs: dtds.iter().map(|d| Graph::of(d)).collect(),
            sats: dtds.iter().map(|d| SatAnalyzer::new(d)).collect(),
            rng: SplitMix64::seed_from_u64(seed),
            seen: HashSet::new(),
            drawn: 0,
        }
    }
}

impl Iterator for ColdStream<'_> {
    type Item = ColdQuery;

    fn next(&mut self) -> Option<ColdQuery> {
        let unsat = self.drawn % 5 == 4;
        for _ in 0..10_000 {
            let d = self.rng.gen_range(0..self.graphs.len());
            let text = self.graphs[d].walk(&mut self.rng, unsat);
            let key = if unsat {
                text.clone()
            } else {
                let path = parse_xpath(&text).expect("generated queries parse");
                self.sats[d].normalize(&path).to_string()
            };
            if self.seen.insert((d, unsat, key)) {
                self.drawn += 1;
                return Some(ColdQuery {
                    dtd: d,
                    text,
                    unsat,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2s_dtd::samples;
    use x2s_xpath::Sat;

    fn dtds() -> Vec<Dtd> {
        vec![
            samples::dept_simplified(),
            samples::cross(),
            samples::gedml(),
        ]
    }

    #[test]
    fn documents_are_seed_deterministic() {
        for dtd in dtds() {
            let a = document(&dtd, (8, 3, 400), 5);
            let b = document(&dtd, (8, 3, 400), 5);
            let c = document(&dtd, (8, 3, 400), 6);
            assert!(a.len() >= 200);
            let shape = |t: &Tree| -> Vec<(u32, Option<u32>)> {
                t.node_ids()
                    .map(|n| (n.0, t.parent(n).map(|p| p.0)))
                    .collect()
            };
            assert_eq!(shape(&a), shape(&b));
            assert_ne!(shape(&a), shape(&c), "another seed gives another document");
        }
    }

    #[test]
    fn mixes_are_seed_deterministic() {
        let draw = |seed| {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..24).collect();
            shuffle(&mut order, &mut rng);
            let picks: Vec<usize> = (0..50).map(|_| zipf(8, &mut rng)).collect();
            (order, picks)
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut rng = SplitMix64::seed_from_u64(3);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[zipf(8, &mut rng)] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1] / 2), "{counts:?}");
        assert!(counts[0] > 3 * counts[7], "{counts:?}");
    }

    #[test]
    fn cold_stream_is_seed_deterministic_and_never_repeats() {
        let owned = dtds();
        let refs: Vec<&Dtd> = owned.iter().collect();
        let a = ColdStream::new(&refs, 9).take(500).collect::<Vec<_>>();
        assert_eq!(a, ColdStream::new(&refs, 9).take(500).collect::<Vec<_>>());
        assert_ne!(a, ColdStream::new(&refs, 10).take(500).collect::<Vec<_>>());
        let distinct: HashSet<(usize, &str)> = a.iter().map(|q| (q.dtd, q.text.as_str())).collect();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn one_in_five_cold_queries_is_statically_empty() {
        let owned = dtds();
        let refs: Vec<&Dtd> = owned.iter().collect();
        let stream: Vec<ColdQuery> = ColdStream::new(&refs, 11).take(1000).collect();
        assert_eq!(stream.iter().filter(|q| q.unsat).count(), 200);
        let mut pruned_sat = 0;
        for q in &stream {
            let path = parse_xpath(&q.text).unwrap();
            let sat = SatAnalyzer::new(refs[q.dtd]);
            let empty = matches!(sat.check(&sat.normalize(&path)), Sat::Empty { .. });
            if q.unsat {
                assert!(empty, "constructed-unsat query not pruned: {}", q.text);
            } else if empty {
                pruned_sat += 1;
            }
        }
        // the gate may prune a few walks whose qualifiers clash, but the
        // pruned share stays near one in five
        assert!(pruned_sat <= 20, "{pruned_sat} satisfiable walks pruned");
    }
}
