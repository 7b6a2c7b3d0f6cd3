//! # Paper ↔ code map
//!
//! Line-by-line correspondence between the paper's pseudocode and this
//! crate. This module contains no code — it is the navigation aid for
//! readers holding the PDF.
//!
//! ## Algorithm 1 (abstract phase loop) → the `Generic` arm of [`crate::session::Session`]
//!
//! | Line | Paper | Code |
//! |---|---|---|
//! | 1 | `M ← ∅` | `Matching::new(g.n())` |
//! | 2 | `k ← ⌈1/ε⌉` | caller picks `k` |
//! | 3 | `for ℓ ← 1,3,…,2k-1` | one `Session::step` per phase, running `generic::phase_step` |
//! | 4 | construct `C_M(ℓ)` | `dgraph::augmenting::enumerate_augmenting_paths`, run *globally* on `G`; a unit test checks, on the real flood, that every path and its conflicts are visible in the gathered ball of each of its nodes |
//! | 5 | MIS of `C_M(ℓ)` | `conflict_graph_mis`: the greedy MIS in the phase's fixed rank order (`rank_key`, one seeded rank per path), run as parallel rounds and charged per Lemma 3.3 |
//! | 6–7 | `M ← M ⊕ P` | `Matching::augment_path` per chosen path |
//!
//! ## Algorithm 2 (view gathering) → `generic::gather_balls_region`
//!
//! | Step | Paper | Code |
//! |---|---|---|
//! | 1 | send distance-(i-1) neighborhood each round | fault-free: `ShellNode::on_round` sends, in the 0-based round `r`, a token as large as the node's distance-`r` shell, read from `shell_table` (one multi-source BFS per 64 participants, bit-sliced per-level counts); under an active adversary plan: `GatherNode::on_round` (delta flooding, `Arc`-shared payloads) |
//! | 2 | `P_v(ℓ)`, `P_v(2ℓ)` | not built per node: the gathering rounds and message sizes are simulated, but the paths are enumerated globally (Algorithm 1, line 4) |
//! | 3 | `leader(P)` = smaller-id endpoint | canonical path direction in the enumerator |
//! | 4 | leaders announce paths | charged in the MIS token accounting |
//!
//! ## Algorithm 3 (counting BFS) → [`crate::bipartite::count`]
//!
//! | Line | Paper | Code |
//! |---|---|---|
//! | 1 | `c_v[i] ← 0` | `CountNode::counts` |
//! | 2–4 | free X sends `1`, halts | round 0 arm of `on_round` |
//! | 5 | wait for first message (`d(v)`) | `dist: Option<u64>` set once |
//! | 6–7 | record counts, `n_v ← Σ c_v[i]` | the inbox fold |
//! | 8–10 | X forwards `n_v` to all neighbors | `(Role::X, Some(mate))` arm (mate excluded; it was the sender) |
//! | 11–13 | matched Y forwards to its mate | `(Role::Y, Some(mate))` arm |
//! | — | unmatched Y records (endpoint) | `(Role::Y, None)` arm; becomes a token-pass *leader* |
//!
//! ## Token MIS (Section 3.2 prose) → [`crate::bipartite::token`]
//!
//! | Paper | Code |
//! |---|---|
//! | leader draws `w_y ∈ [1, N⁴]` | 64-bit priority + leader-id tiebreak |
//! | next edge sampled with prob `c_y[i]/n_y` | `TokenNode::sample_port` |
//! | X follows its matching edge | `(Role::X, Some(mp))` arm |
//! | tokens meet ⇒ max survives | `best` fold over `TokMsg::Token` arrivals |
//! | arrival only at a single round | staggered launch `ℓ - d(y)`, asserted |
//! | trace back & augment | `TokMsg::Flip` retrace |
//! | chunked pipelining (Lemma 3.7) | *not simulated*; values charged their exact bits (see [`crate::bipartite::count`]) |
//!
//! ## Algorithm 4 (red/blue sampling) → the `General` arm of [`crate::session::Session`]
//!
//! | Line | Paper | Code |
//! |---|---|---|
//! | 2 | `2^{2k+1}(k+1) ln k` iterations | [`crate::general::iteration_bound`] |
//! | 3 | random coloring | per-iteration bit draw + 1-bit exchange charge |
//! | 4 | `Ĝ = (V̂, Ê)` | [`crate::bipartite::SubgraphSpec::from_coloring`] |
//! | 5 | `Aug(Ĝ, M, 2k-1)` | [`crate::bipartite::AugNets::aug_until_maximal`] |
//! | 6 | `M ← M ⊕ P` | inside the token pass flips |
//!
//! ## Algorithm 5 (weighted reduction) → the `Weighted` arm of [`crate::session::Session`]
//!
//! | Line | Paper | Code |
//! |---|---|---|
//! | 2 | `(3/2δ)·ln(2/ε)` iterations | [`crate::weighted::iteration_bound`] |
//! | 3 | `G' ← (V, E, w_M)` | [`crate::weighted::derived_graph`] |
//! | 4 | `M' ← δ-MWM(G')` | [`crate::weighted::MwmBox::run_cfg`] |
//! | 5 | `M ← M ⊕ ⋃ wrap(e)` | [`crate::weighted::apply_wraps`] |
//!
//! ## Supporting lemmas
//!
//! | Lemma | Where it is *checked* |
//! |---|---|
//! | 3.4 (shortest length grows) | `tests/prop_matching.rs::lemma_3_4_shortest_length_grows` |
//! | 3.5 (length ⇒ ratio) | `tests/prop_matching.rs::lemma_3_5_quality_from_path_length` |
//! | 3.6 (count = #paths ≤ Δ^⌈d/2⌉) | `bipartite::count` tests + E2 |
//! | 4.1 (wrap soundness) | `weighted` tests, E6, `tests/figures.rs` |
//! | 4.2 (short augmentations exist) | `dgraph::waug` tests (`exhausted_augmentations_imply_near_optimality`) |
//! | 4.3 (convergence) | E5a's prediction column |
