//! Batch edits of CSR adjacency rows.
//!
//! Both CSR adjacencies of the workspace, [`crate::Topology`] and
//! `dgraph::Graph`, apply an edge batch the same way: the rows no edge
//! of the batch touches are copied in runs, and each touched row is
//! merged with its sorted changes. [`RowChanges`] owns that rule: it
//! sorts a batch into per-row changes, walks the rows as clean runs and
//! dirty rows ([`RowChanges::spans`]), and merges a dirty row
//! ([`DirtyRow::merge`]). The owner of the adjacency only says how to
//! copy a run and what to write for each entry of a merged row.

use crate::topology::NodeId;
use std::ops::Range;

/// An edge batch as row changes: each removed or inserted edge
/// `{u, v}` changes row `u` (toward `v`) and row `v` (toward `u`).
/// Kept across batches so its buffer is reused.
#[derive(Debug, Clone, Default)]
pub struct RowChanges {
    /// Number of rows.
    n: usize,
    /// `(row, neighbor, tag)`, sorted. The tag is 0 for a removal and
    /// `i + 1` for the insertion of `added[i]`, so a removal sorts
    /// ahead of a re-insertion of the same edge.
    changes: Vec<(NodeId, NodeId, u32)>,
}

/// One stretch of the row walk of [`RowChanges::spans`].
#[derive(Debug)]
pub enum RowSpan<'a> {
    /// Rows no change touches.
    Clean(Range<usize>),
    /// One row the batch touches.
    Dirty(DirtyRow<'a>),
}

/// A row the batch touches, with its changes.
#[derive(Debug)]
pub struct DirtyRow<'a> {
    /// The row (node) index.
    pub row: usize,
    changes: &'a [(NodeId, NodeId, u32)],
}

/// One entry of a merged row, reported in row order.
#[derive(Debug, Clone, Copy)]
pub enum RowEdit<T> {
    /// An old entry that stays.
    Keep(T),
    /// An old entry whose edge the batch removed.
    Drop(T),
    /// A new entry toward `neighbor`, for the batch's `added[index]`.
    Insert { neighbor: NodeId, index: usize },
}

impl RowChanges {
    /// Load the changes of removing `removed` and inserting `added` on
    /// `n` rows, replacing the previous batch. An edge may appear in
    /// both lists: it is removed, then inserted again. Panics on a
    /// self-loop or an out-of-range endpoint.
    pub fn load(&mut self, n: usize, removed: &[(NodeId, NodeId)], added: &[(NodeId, NodeId)]) {
        self.n = n;
        self.changes.clear();
        let tagged = removed
            .iter()
            .map(|&uv| (uv, 0))
            .chain(added.iter().zip(1..).map(|(&uv, tag)| (uv, tag)));
        for ((u, v), tag) in tagged {
            assert!(u != v, "self-loop at {u} in edge batch");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range (n={n})"
            );
            self.changes.push((u, v, tag));
            self.changes.push((v, u, tag));
        }
        self.changes.sort_unstable();
    }

    /// The row walk over rows `0..n`, in order: maximal runs of clean
    /// rows and, between them, each dirty row on its own.
    pub fn spans(&self) -> impl Iterator<Item = RowSpan<'_>> {
        let n = self.n;
        let mut rest = &self.changes[..];
        let mut next = 0usize; // first row not yet walked
        std::iter::from_fn(move || {
            let row = rest.first().map_or(n, |&(r, _, _)| r as usize);
            if next < row {
                let clean = next..row;
                next = row;
                return Some(RowSpan::Clean(clean));
            }
            if row == n {
                return None;
            }
            let (changes, tail) = rest.split_at(rest.partition_point(|c| c.0 as usize == row));
            rest = tail;
            next = row + 1;
            Some(RowSpan::Dirty(DirtyRow { row, changes }))
        })
    }
}

impl DirtyRow<'_> {
    /// Merge the row's old entries, sorted by neighbor `key`, with its
    /// changes: `edit` sees every old entry (kept or dropped) and every
    /// inserted one, in the order of the merged row. Panics on removing
    /// an absent neighbor, inserting a present one, or inserting one
    /// twice.
    pub fn merge<T: Copy>(
        &self,
        old: &[T],
        key: impl Fn(T) -> NodeId,
        mut edit: impl FnMut(RowEdit<T>),
    ) {
        let row = self.row;
        let mut i = 0usize;
        let mut last_inserted = None;
        for &(_, nb, tag) in self.changes {
            while i < old.len() && key(old[i]) < nb {
                edit(RowEdit::Keep(old[i]));
                i += 1;
            }
            let present = i < old.len() && key(old[i]) == nb;
            if tag == 0 {
                assert!(present, "removing non-edge ({row},{nb})");
                edit(RowEdit::Drop(old[i]));
                i += 1;
            } else {
                assert!(!present, "inserting existing edge ({row},{nb})");
                assert!(
                    last_inserted != Some(nb),
                    "duplicate edge ({row},{nb}) in insertion batch"
                );
                last_inserted = Some(nb);
                edit(RowEdit::Insert {
                    neighbor: nb,
                    index: tag as usize - 1,
                });
            }
        }
        for &x in &old[i..] {
            edit(RowEdit::Keep(x));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walk of `changes` over `rows` (sorted neighbor lists), with
    /// each dirty row merged against its list.
    fn walk(changes: &RowChanges, rows: &[Vec<NodeId>]) -> Vec<String> {
        changes
            .spans()
            .map(|span| match span {
                RowSpan::Clean(r) => format!("clean {r:?}"),
                RowSpan::Dirty(d) => {
                    let mut edits = Vec::new();
                    d.merge(&rows[d.row], |nb| nb, |e| edits.push(e));
                    format!("dirty {} {edits:?}", d.row)
                }
            })
            .collect()
    }

    #[test]
    fn spans_cover_every_row_once() {
        let rows = vec![vec![1], vec![0, 2], vec![1], vec![], vec![]];
        let mut ch = RowChanges::default();
        ch.load(5, &[], &[]);
        assert_eq!(walk(&ch, &rows), ["clean 0..5"]);
        ch.load(5, &[(2, 1)], &[(4, 3)]);
        assert_eq!(
            walk(&ch, &rows),
            [
                "clean 0..1",
                "dirty 1 [Keep(0), Drop(2)]",
                "dirty 2 [Drop(1)]",
                "dirty 3 [Insert { neighbor: 4, index: 0 }]",
                "dirty 4 [Insert { neighbor: 3, index: 0 }]",
            ]
        );
        ch.load(5, &[(0, 1)], &[]);
        assert_eq!(
            walk(&ch, &rows),
            [
                "dirty 0 [Drop(1)]",
                "dirty 1 [Drop(0), Keep(2)]",
                "clean 2..5"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn load_rejects_out_of_range_endpoints() {
        RowChanges::default().load(3, &[(0, 3)], &[]);
    }
}
