//! [`KronChain`]: the k-factor generalisation of [`KroneckerProduct`] —
//! an arbitrary Kronecker **program** `M_1 ⊗ M_2 ⊗ … ⊗ M_k`, where each
//! level `M_i` is a named loop-free factor `A_i` or its identity lift
//! `A_i + I` (the paper's Assump. 1(ii) construction, applied per level).
//!
//! The paper derives Thms 3–7 for the two-factor products `A ⊗ B` and
//! `(A + I_A) ⊗ B`, but every quantity in those derivations is
//! **multiplicative through the Kronecker product**, so the formulas
//! compose through chains of any length:
//!
//! * diagonal walk counts: `(C⁴)_vv = Π_i (M_i⁴)_{v_i v_i}` (Thm 3/4),
//! * entry walk counts: `(C³)_pq = Π_i (M_i³)_{p_i q_i}` (Thm 5),
//! * degrees: `d_C(v) = Π_i d_{M_i}(v_i)`,
//! * community volumes: `1_Sᵀ C 1_T = Π_i 1_{S_i}ᵀ M_i 1_{T_i}` (Thm 7).
//!
//! The only structural requirement is that the *product* be loop-free
//! (the per-vertex identity `2q(v) = walk₄(v) − d(v)² − w₂(v) + d(v)`
//! counts closed 4-walks, and loops would add degenerate walks). That
//! holds iff **at least one level lacks `+ I`**: a loop-free level has a
//! zero diagonal, and the Kronecker product's diagonal is the product of
//! the levels' diagonals. [`KronChain::new`] enforces exactly this.
//!
//! Product vertex indices use **mixed-radix** (row-major) arithmetic,
//! level 0 most significant: `p = Σ_i v_i · stride_i` with
//! `stride_i = Π_{j>i} n_j` — the k-factor generalisation of
//! [`KronIndexer`](crate::KronIndexer)'s `γ(i, k) = i·n_B + k`.
//!
//! Per-level [`FactorStats`] are computed **once per distinct atom** at
//! construction; every query afterwards is O(k) arithmetic on factor-sized
//! tables (plus O(limit) for neighbor pages), preserving the serving
//! layer's sublinear-memory contract for arbitrary programs.

use std::collections::HashMap;
use std::fmt;

use bikron_graph::Graph;
use bikron_sparse::semiring::Times;
use bikron_sparse::{ewise_add, kron, Csr, Ix, SparseError};

use crate::product::SelfLoopMode;
use crate::truth::clustering::{factor_gamma, psi};
use crate::truth::squares_edge::w3_effective_a;
use crate::truth::squares_vertex::single_terms;
use crate::truth::FactorStats;

/// A named factor graph with its precomputed walk statistics.
struct ChainAtom {
    name: String,
    graph: Graph,
    stats: FactorStats,
}

/// One level of the chain: which atom, and whether it is identity-lifted.
#[derive(Copy, Clone)]
struct Level {
    atom: usize,
    plus_identity: bool,
}

/// Why a chain could not be built. Every variant is a user-input problem
/// (the CLI prints these verbatim), not an internal invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The expression had no levels.
    Empty,
    /// A level referenced a name with no bound graph.
    UnboundName(String),
    /// Two atom bindings used the same name.
    DuplicateName(String),
    /// A bound factor graph had no vertices.
    EmptyFactor(String),
    /// A bound factor graph had self-loops (`+ I` must stay logical).
    SelfLoops(String),
    /// Every level was `+ I`-lifted, so the product would have loops and
    /// the Thm 3–5 closed forms would not apply.
    NoLoopFreeLevel,
    /// The product size overflowed the index or count type.
    TooLarge,
    /// A per-level set (e.g. a community side) named a vertex that level's
    /// factor does not have.
    OutOfRange {
        /// The level whose set is out of range.
        level: usize,
        /// Its largest member.
        vertex: Ix,
    },
    /// A per-level query passed a number of sets other than one per level.
    SetCount {
        /// The chain's level count.
        expected: usize,
        /// The number of sets passed.
        got: usize,
    },
    /// Walk-statistics precomputation failed (overflow in a factor).
    Stats(SparseError),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Empty => write!(f, "expression has no factors"),
            ChainError::UnboundName(n) => {
                write!(f, "factor '{n}' is not bound (add {n}=SPEC)")
            }
            ChainError::DuplicateName(n) => write!(f, "factor '{n}' is bound twice"),
            ChainError::EmptyFactor(n) => write!(f, "factor '{n}' has no vertices"),
            ChainError::SelfLoops(n) => {
                write!(f, "factor '{n}' has self-loops; use (+I) to lift instead")
            }
            ChainError::NoLoopFreeLevel => write!(
                f,
                "every level is '+ I'-lifted; at least one bare factor is \
                 required so the product is loop-free"
            ),
            ChainError::TooLarge => write!(f, "product size overflows the index type"),
            ChainError::OutOfRange { level, vertex } => {
                write!(f, "level {level} has no vertex {vertex}")
            }
            ChainError::SetCount { expected, got } => {
                write!(f, "expected {expected} sets (one per level), got {got}")
            }
            ChainError::Stats(e) => write!(f, "factor statistics failed: {e}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Thm 6 surface for one product pair `(p, q)` of a chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainClustering {
    /// Product degree `d_p`.
    pub degree_p: u64,
    /// Product degree `d_q`.
    pub degree_q: u64,
    /// `◇_pq` (Thm 5, chained) — `None` when `(p, q)` is not an edge.
    pub squares: Option<u64>,
    /// Exact `Γ_C(p, q) = ◇_pq / ((d_p − 1)(d_q − 1))` — `None` when not
    /// an edge or the denominator vanishes.
    pub gamma: Option<f64>,
    /// Thm 6 lower bound `Π ψ · Π Γ_i`, folded pairwise over the chain —
    /// `None` unless every level is bare (no `+ I`) with all endpoint
    /// degrees ≥ 2.
    pub bound: Option<f64>,
    /// The accumulated `Π ψ` of the fold, when `bound` is defined.
    pub psi: Option<f64>,
}

/// Thm 7 surface for a product community `S = S_1 γ S_2 γ … γ S_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainCommunity {
    /// `|S| = Π |S_i|`.
    pub size: u64,
    /// Exact internal edge count `m_in(S)`.
    pub m_in: u64,
    /// Exact external (cut) edge count `m_out(S)`.
    pub m_out: u64,
}

/// An arbitrary Kronecker program over named factors, with compositional
/// ground truth for every query the serving layer answers.
pub struct KronChain {
    atoms: Vec<ChainAtom>,
    levels: Vec<Level>,
    /// Per-level vertex counts `n_i` and row-major strides `Π_{j>i} n_j`.
    sizes: Vec<usize>,
    strides: Vec<usize>,
    n: usize,
    num_edges: u64,
    max_degree: u64,
    global_squares: u64,
    canonical: String,
}

impl KronChain {
    /// Build a chain from named atom graphs and an ordered level list
    /// (`(name, plus_identity)` pairs, e.g. from
    /// [`bikron_sparse::ExprChain`]). Unused bindings are allowed;
    /// unbound names, duplicate names, loopy or empty factors, an
    /// all-lifted chain, and oversized products are rejected.
    pub fn new(
        bindings: Vec<(String, Graph)>,
        level_spec: &[(String, bool)],
    ) -> Result<Self, ChainError> {
        let mut atoms = Vec::with_capacity(bindings.len());
        for (name, graph) in bindings {
            let stats = Self::check_atom(&name, &graph, None)?;
            atoms.push(ChainAtom { name, graph, stats });
        }
        Self::from_atoms(atoms, level_spec)
    }

    /// Build a chain from atoms whose [`FactorStats`] were already computed
    /// (e.g. restored from a snapshot), skipping the O(spgemm) per-atom
    /// recomputation that dominates cold-boot time. Each supplied stats
    /// block is still shape-checked against its graph, and every other
    /// `new()` rejection applies unchanged.
    pub fn with_stats(
        bindings: Vec<(String, Graph, FactorStats)>,
        level_spec: &[(String, bool)],
    ) -> Result<Self, ChainError> {
        let mut atoms = Vec::with_capacity(bindings.len());
        for (name, graph, stats) in bindings {
            let stats = Self::check_atom(&name, &graph, Some(stats))?;
            atoms.push(ChainAtom { name, graph, stats });
        }
        Self::from_atoms(atoms, level_spec)
    }

    /// Validate one named atom; compute its stats unless a precomputed
    /// block is supplied (which is shape-checked instead).
    fn check_atom(
        name: &str,
        graph: &Graph,
        precomputed: Option<FactorStats>,
    ) -> Result<FactorStats, ChainError> {
        if graph.num_vertices() == 0 {
            return Err(ChainError::EmptyFactor(name.to_string()));
        }
        if !graph.has_no_self_loops() {
            return Err(ChainError::SelfLoops(name.to_string()));
        }
        match precomputed {
            Some(stats) => {
                if stats.order() != graph.num_vertices() {
                    return Err(ChainError::Stats(bikron_sparse::SparseError::Malformed(
                        format!(
                            "stats for '{name}' cover {} vertices but the graph has {}",
                            stats.order(),
                            graph.num_vertices()
                        ),
                    )));
                }
                Ok(stats)
            }
            None => FactorStats::compute(graph).map_err(ChainError::Stats),
        }
    }

    /// Shared tail of [`KronChain::new`]/[`KronChain::with_stats`]: resolve
    /// the level spec against the atom list and derive sizes, strides,
    /// edge/degree products and the canonical expression.
    fn from_atoms(
        atoms: Vec<ChainAtom>,
        level_spec: &[(String, bool)],
    ) -> Result<Self, ChainError> {
        if level_spec.is_empty() {
            return Err(ChainError::Empty);
        }
        let mut by_name: HashMap<String, usize> = HashMap::new();
        for (i, atom) in atoms.iter().enumerate() {
            if by_name.insert(atom.name.clone(), i).is_some() {
                return Err(ChainError::DuplicateName(atom.name.clone()));
            }
        }
        let mut levels = Vec::with_capacity(level_spec.len());
        for (name, plus_identity) in level_spec {
            let &atom = by_name
                .get(name)
                .ok_or_else(|| ChainError::UnboundName(name.clone()))?;
            levels.push(Level {
                atom,
                plus_identity: *plus_identity,
            });
        }
        if levels.iter().all(|l| l.plus_identity) {
            return Err(ChainError::NoLoopFreeLevel);
        }

        let sizes: Vec<usize> = levels
            .iter()
            .map(|l| atoms[l.atom].graph.num_vertices())
            .collect();
        let mut n: usize = 1;
        for &s in &sizes {
            n = n.checked_mul(s).ok_or(ChainError::TooLarge)?;
        }
        let mut strides = vec![1usize; sizes.len()];
        for i in (0..sizes.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * sizes[i + 1];
        }

        // |E_C| = ½ Π nnz_eff,i and Δ_C = Π Δ_eff,i — both must fit u64.
        let mut nnz: u128 = 1;
        let mut max_degree: u128 = 1;
        for l in &levels {
            let g = &atoms[l.atom].graph;
            let eps = if l.plus_identity { 1u64 } else { 0 };
            let level_nnz = g.nnz() as u128 + (eps as u128) * g.num_vertices() as u128;
            nnz = nnz.checked_mul(level_nnz).ok_or(ChainError::TooLarge)?;
            let level_max = g.max_degree() as u64 + eps;
            max_degree = max_degree
                .checked_mul(level_max as u128)
                .ok_or(ChainError::TooLarge)?;
        }
        let num_edges = u64::try_from(nnz / 2).map_err(|_| ChainError::TooLarge)?;
        let max_degree = u64::try_from(max_degree).map_err(|_| ChainError::TooLarge)?;

        let canonical = canonical_expr(level_spec);

        let mut chain = KronChain {
            atoms,
            levels,
            sizes,
            strides,
            n,
            num_edges,
            max_degree,
            global_squares: 0,
            canonical,
        };
        chain.global_squares = chain.compute_global_squares()?;
        Ok(chain)
    }

    /// Number of product vertices `Π n_i`.
    pub fn num_vertices(&self) -> Ix {
        self.n
    }

    /// Number of product edges `½ Π nnz_eff,i`.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Maximum product degree `Π Δ_eff,i`.
    pub fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// Global 4-cycle count (Thm 3/4 summed, chained).
    pub fn global_squares(&self) -> u64 {
        self.global_squares
    }

    /// Number of levels `k` in the chain.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The canonicalised expression string, `⊗`-joined with `(NAME+I)`
    /// spelling — the identity used in cache keys and `/v1/stats`.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// Number of distinct atoms bound in this chain (≥ levels that use them).
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Atom metadata by index: `(name, graph, stats)` — the exact inputs a
    /// snapshot needs to rebuild this chain via [`KronChain::with_stats`].
    pub fn atom_info(&self, i: usize) -> (&str, &Graph, &FactorStats) {
        let a = &self.atoms[i];
        (&a.name, &a.graph, &a.stats)
    }

    /// The ordered `(name, plus_identity)` level spec this chain was built
    /// from, reconstructed from the resolved levels.
    pub fn level_spec(&self) -> Vec<(String, bool)> {
        self.levels
            .iter()
            .map(|l| (self.atoms[l.atom].name.clone(), l.plus_identity))
            .collect()
    }

    /// Level metadata for stats reporting: `(name, graph, plus_identity)`.
    pub fn level_info(&self, i: usize) -> (&str, &Graph, bool) {
        let l = self.levels[i];
        (
            &self.atoms[l.atom].name,
            &self.atoms[l.atom].graph,
            l.plus_identity,
        )
    }

    /// Decompose a product vertex into its per-level coordinates
    /// (level 0 first / most significant).
    pub fn split(&self, p: Ix) -> Vec<Ix> {
        self.coords(p).collect()
    }

    /// [`KronChain::split`] without the allocation, for the per-query
    /// evaluators.
    pub fn coords(&self, p: Ix) -> impl Iterator<Item = Ix> + '_ {
        debug_assert!(p < self.n);
        self.strides
            .iter()
            .zip(&self.sizes)
            .map(move |(&stride, &size)| (p / stride) % size)
    }

    /// Recompose per-level coordinates into the product vertex.
    pub fn combine(&self, coords: &[Ix]) -> Ix {
        debug_assert_eq!(coords.len(), self.levels.len());
        coords
            .iter()
            .zip(&self.strides)
            .map(|(&c, &stride)| c * stride)
            .sum()
    }

    fn level_graph(&self, i: usize) -> &Graph {
        &self.atoms[self.levels[i].atom].graph
    }

    /// The precomputed walk statistics of level `i`'s atom.
    pub fn level_stats(&self, i: usize) -> &FactorStats {
        &self.atoms[self.levels[i].atom].stats
    }

    fn level_mode(&self, i: usize) -> SelfLoopMode {
        if self.levels[i].plus_identity {
            SelfLoopMode::FactorA
        } else {
            SelfLoopMode::None
        }
    }

    /// Effective degree of level `i` at factor vertex `v`.
    fn level_degree(&self, i: usize, v: Ix) -> u64 {
        self.level_graph(i).degree(v) as u64 + u64::from(self.levels[i].plus_identity)
    }

    /// Product degree `d_C(p) = Π d_eff,i(p_i)`; fits `u64` because the
    /// constructor bounded `Π Δ_eff,i`.
    pub fn degree(&self, p: Ix) -> u64 {
        self.coords(p)
            .enumerate()
            .map(|(i, v)| self.level_degree(i, v))
            .product()
    }

    /// Effective adjacency test at one level.
    fn level_hit(&self, i: usize, v: Ix, w: Ix) -> bool {
        self.level_graph(i).has_edge(v, w) || (self.levels[i].plus_identity && v == w)
    }

    /// Whether `(p, q)` is a product edge: a hit at **every** level.
    pub fn has_edge(&self, p: Ix, q: Ix) -> bool {
        self.coords(p)
            .zip(self.coords(q))
            .enumerate()
            .all(|(i, (v, w))| self.level_hit(i, v, w))
    }

    /// One page of `p`'s neighbors in ascending order — the k-factor
    /// generalisation of [`KroneckerProduct::neighbors_page`]: per-level
    /// sorted effective neighbor lists, with ranks decomposed in mixed
    /// radix over the per-level effective degrees. O(Σ d_i + limit).
    pub fn neighbors_page(&self, p: Ix, offset: u64, limit: usize) -> Vec<Ix> {
        let coords = self.split(p);
        // Sorted effective neighbor list per level (self spliced in at its
        // sorted position under `+ I`).
        let eff: Vec<Vec<Ix>> = coords
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let nbrs = self.level_graph(i).neighbors(v);
                if self.levels[i].plus_identity {
                    let at = nbrs.partition_point(|&w| w < v);
                    let mut row = Vec::with_capacity(nbrs.len() + 1);
                    row.extend_from_slice(&nbrs[..at]);
                    row.push(v);
                    row.extend_from_slice(&nbrs[at..]);
                    row
                } else {
                    nbrs.to_vec()
                }
            })
            .collect();
        let radix: Vec<u64> = eff.iter().map(|row| row.len() as u64).collect();
        let total: u64 = radix.iter().product();
        // Rank strides mirror the index strides: level 0 most significant.
        let mut rank_stride = vec![1u64; radix.len()];
        for i in (0..radix.len().saturating_sub(1)).rev() {
            rank_stride[i] = rank_stride[i + 1] * radix[i + 1];
        }
        let start = offset.min(total);
        let end = total.min(offset.saturating_add(limit as u64));
        (start..end)
            .map(|r| {
                (0..eff.len())
                    .map(|i| eff[i][((r / rank_stride[i]) % radix[i]) as usize] * self.strides[i])
                    .sum()
            })
            .collect()
    }

    /// Thm 3/4 chained: 4-cycles at product vertex `p`, as the 4-term
    /// product-of-levels formula `2s(p) = Π walk₄ − Π d² − Π w₂ + Π d`.
    pub fn vertex_squares_at(&self, p: Ix) -> u64 {
        let (mut walk4, mut deg_sq, mut w2, mut deg) = (1i128, 1i128, 1i128, 1i128);
        for (i, v) in self.coords(p).enumerate() {
            let t = single_terms(self.level_stats(i), v, self.levels[i].plus_identity);
            walk4 *= t.0;
            deg_sq *= t.1;
            w2 *= t.2;
            deg *= t.3;
        }
        let twice = walk4 - deg_sq - w2 + deg;
        debug_assert!(twice >= 0 && twice % 2 == 0);
        (twice / 2) as u64
    }

    /// Thm 5 chained: `◇_pq = Π (M_i³)_{p_i q_i} − d_p − d_q + 1`;
    /// `None` when `(p, q)` is not a product edge.
    pub fn edge_squares_at(&self, p: Ix, q: Ix) -> Option<u64> {
        self.edge_at(p, q).2
    }

    /// `(d_p, d_q, ◇_pq)` in one pass over the coordinates — the degrees
    /// Thm 5 needs anyway, for callers that report them too.
    pub fn edge_at(&self, p: Ix, q: Ix) -> (u64, u64, Option<u64>) {
        let (mut dp, mut dq, mut w3) = (1u64, 1u64, Some(1i128));
        for (i, (v, w)) in self.coords(p).zip(self.coords(q)).enumerate() {
            dp *= self.level_degree(i, v);
            dq *= self.level_degree(i, w);
            if let Some(acc) = w3 {
                w3 = w3_effective_a(self.level_stats(i), self.level_mode(i), v, w).map(|x| acc * x);
            }
        }
        let squares = w3.map(|w3| {
            let v = w3 - dp as i128 - dq as i128 + 1;
            debug_assert!(v >= 0);
            v as u64
        });
        (dp, dq, squares)
    }

    /// Thm 6 chained: exact `Γ_C` plus the pairwise-folded scaling-law
    /// lower bound (see [`ChainClustering`] for when each is defined).
    ///
    /// The fold applies the two-factor Thm 6 inequality `Γ_{X⊗Y} ≥
    /// ψ(d) Γ_X Γ_Y` to prefixes: `Γ_C ≥ ψ_2 Γ_{1..2} Γ_3 ≥ ψ_2 (ψ_1 Γ_1
    /// Γ_2) Γ_3 ≥ …` — substituting each prefix's bound is valid because
    /// `ψ` and all `Γ` are non-negative. Prefix degrees multiply, so each
    /// `ψ` is evaluated at `(d_prefix(p), d_prefix(q), d_i(p_i), d_i(q_i))`.
    pub fn clustering_at(&self, p: Ix, q: Ix) -> ChainClustering {
        let (degree_p, degree_q, squares) = self.edge_at(p, q);
        let gamma = squares.and_then(|s| {
            let denom = (degree_p as i128 - 1) * (degree_q as i128 - 1);
            (denom > 0).then(|| s as f64 / denom as f64)
        });
        let (vp, vq) = (self.split(p), self.split(q));
        let bound_defined = gamma.is_some()
            && self.levels.iter().all(|l| !l.plus_identity)
            && (0..self.levels.len())
                .all(|i| self.level_degree(i, vp[i]) >= 2 && self.level_degree(i, vq[i]) >= 2);
        let (mut bound, mut psi_total) = (None, None);
        if bound_defined {
            let fold = (|| -> Option<(f64, f64)> {
                let mut acc = factor_gamma(self.level_stats(0), vp[0], vq[0])?;
                let mut psi_acc = 1.0;
                let mut dp = self.level_degree(0, vp[0]) as i128;
                let mut dq = self.level_degree(0, vq[0]) as i128;
                for i in 1..self.levels.len() {
                    let di = self.level_degree(i, vp[i]) as i128;
                    let dj = self.level_degree(i, vq[i]) as i128;
                    let f = psi(dp, dq, di, dj);
                    acc = f * acc * factor_gamma(self.level_stats(i), vp[i], vq[i])?;
                    psi_acc *= f;
                    dp *= di;
                    dq *= dj;
                }
                Some((acc, psi_acc))
            })();
            if let Some((b, f)) = fold {
                bound = Some(b);
                psi_total = Some(f);
            }
        }
        ChainClustering {
            degree_p,
            degree_q,
            squares,
            gamma,
            bound,
            psi: psi_total,
        }
    }

    /// Thm 7 chained: **exact** internal/external edge counts for the
    /// product community `S = S_1 γ … γ S_k` from per-level counts alone:
    ///
    /// ```text
    /// 2·m_in(S) = 1_Sᵀ C 1_S = Π_i (2·m_in,i + ε_i |S_i|)
    /// vol(S)    = 1_Sᵀ C 1_V = Π_i (2·m_in,i + m_out,i + ε_i |S_i|)
    /// m_out(S)  = vol(S) − 2·m_in(S)
    /// ```
    ///
    /// With `k = 2` and `ε = (1, 0)` this is literally the paper's Thm 7.
    /// Level sets are deduplicated; out-of-range members
    /// ([`ChainError::OutOfRange`], lowest level first) or a wrong set
    /// count ([`ChainError::SetCount`]) are errors.
    pub fn community(&self, sets: &[Vec<Ix>]) -> Result<ChainCommunity, ChainError> {
        if sets.len() != self.levels.len() {
            return Err(ChainError::SetCount {
                expected: self.levels.len(),
                got: sets.len(),
            });
        }
        let (mut size, mut in_all, mut vol_all) = (1u128, 1u128, 1u128);
        for (i, set) in sets.iter().enumerate() {
            let g = self.level_graph(i);
            let mut members = set.clone();
            members.sort_unstable();
            members.dedup();
            if let Some(&vertex) = members.last().filter(|&&v| v >= g.num_vertices()) {
                return Err(ChainError::OutOfRange { level: i, vertex });
            }
            let in_set = |v: Ix| members.binary_search(&v).is_ok();
            let (mut m_in2, mut m_out) = (0u128, 0u128); // m_in2 = 2·m_in
            for &u in &members {
                for &v in g.neighbors(u) {
                    if in_set(v) {
                        m_in2 += 1;
                    } else {
                        m_out += 1;
                    }
                }
            }
            let eps = u128::from(self.levels[i].plus_identity) * members.len() as u128;
            size = size
                .checked_mul(members.len() as u128)
                .ok_or(ChainError::TooLarge)?;
            in_all = in_all
                .checked_mul(m_in2 + eps)
                .ok_or(ChainError::TooLarge)?;
            vol_all = vol_all
                .checked_mul(m_in2 + m_out + eps)
                .ok_or(ChainError::TooLarge)?;
        }
        debug_assert_eq!(in_all % 2, 0, "some level is loop-free, so Π is even");
        let to_u64 = |x: u128| u64::try_from(x).map_err(|_| ChainError::TooLarge);
        Ok(ChainCommunity {
            size: to_u64(size)?,
            m_in: to_u64(in_all / 2)?,
            m_out: to_u64(vol_all - in_all)?,
        })
    }

    /// Global 4-cycle count in O(Σ n_i): each of the four Thm 3/4 term
    /// vectors sums per level, and sums of Kronecker vectors factor —
    /// `Σ 2s(p) = Π Σ walk₄ − Π Σ d² − Π Σ w₂ + Π Σ d = 8·#squares`.
    fn compute_global_squares(&self) -> Result<u64, ChainError> {
        let overflow = ChainError::Stats(SparseError::Overflow {
            op: "chain.global_squares",
        });
        let mut sums = [1i128, 1, 1, 1];
        for l in &self.levels {
            let stats = &self.atoms[l.atom].stats;
            let mut level = [0i128; 4];
            for v in 0..stats.order() {
                let t = single_terms(stats, v, l.plus_identity);
                for (acc, term) in level.iter_mut().zip([t.0, t.1, t.2, t.3]) {
                    *acc = acc.checked_add(term).ok_or_else(|| overflow.clone())?;
                }
            }
            for (acc, s) in sums.iter_mut().zip(level) {
                *acc = acc.checked_mul(s).ok_or_else(|| overflow.clone())?;
            }
        }
        let eight = sums[0]
            .checked_sub(sums[1])
            .and_then(|x| x.checked_sub(sums[2]))
            .and_then(|x| x.checked_add(sums[3]))
            .ok_or(overflow)?;
        if eight < 0 || eight % 8 != 0 {
            return Err(ChainError::Stats(SparseError::Malformed(format!(
                "chain global squares broke the /8 invariant: {eight}"
            ))));
        }
        u64::try_from(eight / 8).map_err(|_| ChainError::TooLarge)
    }

    /// Materialise the product as a [`Graph`] by folding [`kron()`] over the
    /// per-level effective adjacencies. Memory `O(nnz(C))` — validation
    /// only, like [`KroneckerProduct::materialize`].
    pub fn materialize(&self) -> Graph {
        let eff = |i: usize| -> Csr<u64> {
            let g = self.level_graph(i);
            if self.levels[i].plus_identity {
                let eye = Csr::diagonal(g.num_vertices(), 1u64);
                ewise_add(g.adjacency(), &eye, |x, y| x + y, |&v| v == 0).expect("same shape")
            } else {
                g.adjacency().clone()
            }
        };
        let mut acc = eff(0);
        for i in 1..self.levels.len() {
            acc = kron(&Times, &acc, &eff(i)).expect("factor shapes are compatible");
        }
        Graph::from_adjacency(acc).expect("kron of symmetric factors is symmetric")
    }
}

/// The canonical spelling of a level spec: `⊗`-joined names, lifted
/// levels as `(NAME+I)` — what [`KronChain::canonical`] reports and
/// snapshots record.
pub fn canonical_expr(level_spec: &[(String, bool)]) -> String {
    level_spec
        .iter()
        .map(|(name, pi)| {
            if *pi {
                format!("({name}+I)")
            } else {
                name.clone()
            }
        })
        .collect::<Vec<_>>()
        .join("⊗")
}

// `KroneckerProduct` is only referenced in doc comments; keep the link
// target imported for rustdoc.
#[allow(unused_imports)]
use crate::product::KroneckerProduct;

#[cfg(test)]
mod tests {
    use super::*;
    use bikron_generators::{complete_bipartite, cycle, path, star};

    fn bind(names: &[(&str, Graph)]) -> Vec<(String, Graph)> {
        names
            .iter()
            .map(|(n, g)| (n.to_string(), g.clone()))
            .collect()
    }

    fn spec(levels: &[(&str, bool)]) -> Vec<(String, bool)> {
        levels.iter().map(|(n, p)| (n.to_string(), *p)).collect()
    }

    /// The differential workhorse: every per-vertex/per-edge statistic of
    /// the chain against brute force on its own materialisation.
    fn check_against_materialized(chain: &KronChain) {
        let mat = chain.materialize();
        let n = chain.num_vertices();
        assert_eq!(mat.num_vertices(), n);
        assert_eq!(mat.num_edges() as u64, chain.num_edges());
        assert_eq!(mat.max_degree() as u64, chain.max_degree());
        let per_vertex = bikron_analytics_squares(&mat);
        let total: u64 = per_vertex.iter().sum::<u64>() / 4;
        assert_eq!(total, chain.global_squares(), "global squares");
        for (p, &squares) in per_vertex.iter().enumerate() {
            assert_eq!(mat.degree(p) as u64, chain.degree(p), "degree at {p}");
            assert_eq!(squares, chain.vertex_squares_at(p), "squares at {p}");
            assert_eq!(
                mat.neighbors(p).to_vec(),
                chain.neighbors_page(p, 0, usize::MAX),
                "neighbors at {p}"
            );
            for q in 0..n {
                assert_eq!(mat.has_edge(p, q), chain.has_edge(p, q), "edge ({p},{q})");
                let expect = mat.has_edge(p, q).then(|| brute_edge_squares(&mat, p, q));
                let (dp, dq) = (mat.degree(p) as u64, mat.degree(q) as u64);
                assert_eq!((dp, dq, expect), chain.edge_at(p, q), "◇ at ({p},{q})");
            }
        }
    }

    /// 4-cycles per vertex, enumerated on the materialised graph.
    fn bikron_analytics_squares(g: &Graph) -> Vec<u64> {
        bikron_analytics::butterfly::butterflies_per_vertex(g)
    }

    /// 4-cycles through edge (p, q), enumerated on the materialised graph.
    fn brute_edge_squares(g: &Graph, p: usize, q: usize) -> u64 {
        bikron_analytics::butterfly::butterflies_per_edge(g)
            .get(p, q)
            .expect("(p, q) is an edge")
    }

    fn three_factor() -> KronChain {
        KronChain::new(
            bind(&[
                ("A", cycle(3)),
                ("B", path(3)),
                ("C", complete_bipartite(2, 2)),
            ]),
            &spec(&[("A", true), ("B", false), ("C", false)]),
        )
        .unwrap()
    }

    #[test]
    fn three_factor_chain_matches_materialized() {
        check_against_materialized(&three_factor());
    }

    #[test]
    fn tower_matches_materialized() {
        let chain = KronChain::new(
            bind(&[("A", cycle(3))]),
            &spec(&[("A", false), ("A", false), ("A", false)]),
        )
        .unwrap();
        assert_eq!(chain.canonical(), "A⊗A⊗A");
        check_against_materialized(&chain);
    }

    #[test]
    fn bare_pair_matches_materialized() {
        let chain = KronChain::new(
            bind(&[("A", cycle(5)), ("B", star(3))]),
            &spec(&[("A", false), ("B", false)]),
        )
        .unwrap();
        check_against_materialized(&chain);
    }

    #[test]
    fn two_level_chain_agrees_with_kronecker_product() {
        use crate::{KroneckerProduct, SelfLoopMode};
        let (a, b) = (cycle(5), complete_bipartite(2, 3));
        let chain = KronChain::new(
            bind(&[("A", a.clone()), ("B", b.clone())]),
            &spec(&[("A", true), ("B", false)]),
        )
        .unwrap();
        let prod = KroneckerProduct::new(&a, &b, SelfLoopMode::FactorA).unwrap();
        assert_eq!(chain.num_vertices(), prod.num_vertices());
        assert_eq!(chain.num_edges(), prod.num_edges());
        for p in 0..chain.num_vertices() {
            assert_eq!(chain.degree(p), prod.degree(p));
            assert_eq!(
                chain.neighbors_page(p, 1, 3),
                prod.neighbors_page(p, 1, 3),
                "page at {p}"
            );
        }
    }

    #[test]
    fn split_combine_round_trip() {
        let chain = three_factor();
        for p in 0..chain.num_vertices() {
            assert_eq!(chain.combine(&chain.split(p)), p);
        }
    }

    #[test]
    fn clustering_bound_holds_on_bare_chain() {
        // All-bare chain of degree-≥2 factors: the Thm 6 fold must be
        // defined on every edge and lower-bound the exact Γ.
        let chain = KronChain::new(
            bind(&[("A", cycle(3)), ("B", cycle(4)), ("C", cycle(5))]),
            &spec(&[("A", false), ("B", false), ("C", false)]),
        )
        .unwrap();
        let mat = chain.materialize();
        let mut checked = 0;
        for (p, q) in mat.edges() {
            let c = chain.clustering_at(p, q);
            let gamma = c.gamma.expect("edge with degrees ≥ 2");
            let bound = c.bound.expect("all-bare chain");
            assert!(
                bound <= gamma + 1e-12,
                "Thm 6 violated at ({p},{q}): bound {bound} > gamma {gamma}"
            );
            assert!(c.psi.unwrap() > 0.0 && c.psi.unwrap() < 1.0);
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn clustering_has_no_bound_under_identity_lift() {
        let chain = three_factor();
        let mat = chain.materialize();
        let (p, q) = mat.edges().next().unwrap();
        let c = chain.clustering_at(p, q);
        assert!(c.squares.is_some());
        assert_eq!(c.bound, None);
        assert_eq!(c.psi, None);
    }

    #[test]
    fn community_counts_match_brute_force() {
        let chain = three_factor();
        let mat = chain.materialize();
        let sets = vec![vec![0usize, 1], vec![0, 2], vec![1, 2, 3]];
        let truth = chain.community(&sets).unwrap();
        // Brute force: product membership via per-level coordinates.
        let member = |p: usize| chain.split(p).iter().zip(&sets).all(|(c, s)| s.contains(c));
        let (mut m_in, mut m_out, mut size) = (0u64, 0u64, 0u64);
        for p in 0..chain.num_vertices() {
            if !member(p) {
                continue;
            }
            size += 1;
            for &q in mat.neighbors(p) {
                if member(q) {
                    m_in += 1;
                } else {
                    m_out += 1;
                }
            }
        }
        assert_eq!(truth.size, size);
        assert_eq!(truth.m_in, m_in / 2);
        assert_eq!(truth.m_out, m_out);
    }

    #[test]
    fn community_names_the_bad_level() {
        let chain = three_factor();
        assert_eq!(
            chain.community(&[vec![0], vec![0]]).err().unwrap(),
            ChainError::SetCount {
                expected: 3,
                got: 2
            }
        );
        // path(3) at level 1 has vertices 0..3; level 2 is never reached.
        assert_eq!(
            chain
                .community(&[vec![0], vec![5, 1], vec![9]])
                .err()
                .unwrap(),
            ChainError::OutOfRange {
                level: 1,
                vertex: 5
            }
        );
    }

    #[test]
    fn construction_error_matrix() {
        let ok = |levels: &[(&str, bool)]| KronChain::new(bind(&[("A", cycle(3))]), &spec(levels));
        assert_eq!(ok(&[]).err().unwrap(), ChainError::Empty);
        assert_eq!(
            ok(&[("B", false)]).err().unwrap(),
            ChainError::UnboundName("B".into())
        );
        assert_eq!(
            ok(&[("A", true)]).err().unwrap(),
            ChainError::NoLoopFreeLevel
        );
        assert_eq!(
            KronChain::new(
                bind(&[("A", cycle(3)), ("A", cycle(4))]),
                &spec(&[("A", false)])
            )
            .err()
            .unwrap(),
            ChainError::DuplicateName("A".into())
        );
    }
}
