//! The ORCL oracle baseline and its Figure 1 scoped variants.

use std::collections::HashSet;

use pythia_db::trace::{Trace, TraceEvent};
use pythia_sim::PageId;

/// Which accesses the oracle prefetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleScope {
    /// Every page the query reads (the §5.2 ORCL baseline).
    All,
    /// Only sequentially scanned pages (Figure 1 left bars).
    SequentialOnly,
    /// Only non-sequential pages (Figure 1 right bars).
    NonSequentialOnly,
}

/// The oracle's prefetch list: the query's distinct pages in *first-access
/// order* — the oracle knows the exact sequence, so its prefetch order
/// perfectly matches consumption (the best case for the readahead window).
pub fn oracle_prefetch(trace: &Trace, scope: OracleScope) -> Vec<PageId> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for e in trace.iter() {
        if let TraceEvent::Read { page, kind, .. } = e {
            let keep = match scope {
                OracleScope::All => true,
                OracleScope::SequentialOnly => kind.is_sequential(),
                OracleScope::NonSequentialOnly => !kind.is_sequential(),
            };
            if keep && seen.insert(page) {
                out.push(page);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_db::catalog::ObjectId;
    use pythia_db::trace::AccessKind;
    use pythia_sim::FileId;

    fn trace() -> Trace {
        let rd = |f: u32, p: u32, kind| TraceEvent::Read {
            obj: ObjectId(f),
            page: PageId::new(FileId(f), p),
            kind,
        };
        Trace::from_iter([
            rd(0, 0, AccessKind::SeqScan),
            rd(1, 9, AccessKind::HeapFetch),
            rd(0, 1, AccessKind::SeqScan),
            rd(1, 9, AccessKind::HeapFetch), // repeat
            rd(1, 4, AccessKind::IndexLeaf),
        ])
    }

    #[test]
    fn all_scope_first_access_order() {
        let p = oracle_prefetch(&trace(), OracleScope::All);
        let pages: Vec<(u32, u32)> = p.iter().map(|x| (x.file.0, x.page_no)).collect();
        assert_eq!(pages, vec![(0, 0), (1, 9), (0, 1), (1, 4)]);
    }

    #[test]
    fn scoped_variants_partition() {
        let s = oracle_prefetch(&trace(), OracleScope::SequentialOnly);
        let n = oracle_prefetch(&trace(), OracleScope::NonSequentialOnly);
        assert_eq!(s.len(), 2);
        assert_eq!(n.len(), 2);
        let all = oracle_prefetch(&trace(), OracleScope::All);
        assert_eq!(all.len(), s.len() + n.len());
    }

    #[test]
    fn empty_trace_empty_prefetch() {
        assert!(oracle_prefetch(&Trace::new(), OracleScope::All).is_empty());
    }
}
