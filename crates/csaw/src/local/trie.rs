//! A per-host path trie with longest-prefix matching.
//!
//! §4.4 of the paper: "Considering cases (b) and (c) collectively requires
//! longest prefix matching to find the correct status of a derived URL
//! that is blocked." Records live at path-segment granularity; a lookup
//! returns the most specific record on the query's path.

use crate::local::record::LocalRecord;
use std::collections::HashMap;

/// The root's path: no segments.
pub const ROOT: [&str; 0] = [];

/// One trie node: an optional record at this path plus children by
/// segment.
#[derive(Debug, Clone, Default)]
pub struct PathTrie {
    record: Option<LocalRecord>,
    children: HashMap<String, PathTrie>,
}

impl PathTrie {
    /// An empty trie.
    pub fn new() -> PathTrie {
        PathTrie::default()
    }

    /// Insert (or replace) a record at the given path segments. Only
    /// the segments of nodes not yet in the trie are copied.
    ///
    /// Every path argument is a sequence of segments, borrowed or owned;
    /// the root is the empty one ([`ROOT`]).
    pub fn insert(
        &mut self,
        segments: impl IntoIterator<Item = impl AsRef<str>>,
        record: LocalRecord,
    ) {
        let mut node = self;
        for seg in segments {
            let seg = seg.as_ref();
            if !node.children.contains_key(seg) {
                node.children.insert(seg.to_string(), PathTrie::new());
            }
            node = node.children.get_mut(seg).expect("inserted above");
        }
        node.record = Some(record);
    }

    /// The record exactly at the given path, if any.
    pub fn get(&self, segments: impl IntoIterator<Item = impl AsRef<str>>) -> Option<&LocalRecord> {
        let mut node = self;
        for seg in segments {
            node = node.children.get(seg.as_ref())?;
        }
        node.record.as_ref()
    }

    /// Longest-prefix match: the most specific record whose path is a
    /// prefix (segment-wise) of the query.
    pub fn lpm(&self, segments: impl IntoIterator<Item = impl AsRef<str>>) -> Option<&LocalRecord> {
        let mut best = self.record.as_ref();
        let mut node = self;
        for seg in segments {
            match node.children.get(seg.as_ref()) {
                Some(child) => {
                    node = child;
                    if node.record.is_some() {
                        best = node.record.as_ref();
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Remove the record exactly at the given path. Returns it if present.
    /// Empty branches are pruned.
    pub fn remove(
        &mut self,
        segments: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Option<LocalRecord> {
        fn rec(
            node: &mut PathTrie,
            mut segs: impl Iterator<Item = impl AsRef<str>>,
        ) -> (Option<LocalRecord>, bool) {
            let Some(seg) = segs.next() else {
                let r = node.record.take();
                let prune = node.children.is_empty();
                return (r, prune);
            };
            let seg = seg.as_ref();
            let Some(child) = node.children.get_mut(seg) else {
                return (None, false);
            };
            let (r, prune_child) = rec(child, segs);
            if prune_child {
                node.children.remove(seg);
            }
            let prune_me = node.record.is_none() && node.children.is_empty();
            (r, prune_me)
        }
        rec(self, segments.into_iter()).0
    }

    /// Remove every record satisfying the predicate (anywhere in the
    /// trie); returns how many were removed. Empty branches are pruned.
    pub fn retain<F>(&mut self, keep: F) -> usize
    where
        F: Fn(&LocalRecord) -> bool,
    {
        fn rec<F: Fn(&LocalRecord) -> bool>(node: &mut PathTrie, keep: &F) -> usize {
            let mut removed = 0;
            if let Some(r) = &node.record {
                if !keep(r) {
                    node.record = None;
                    removed += 1;
                }
            }
            let mut dead = Vec::new();
            for (seg, child) in node.children.iter_mut() {
                removed += rec(child, keep);
                if child.record.is_none() && child.children.is_empty() {
                    dead.push(seg.clone());
                }
            }
            for seg in dead {
                node.children.remove(&seg);
            }
            removed
        }
        rec(self, &keep)
    }

    /// Number of records in the trie.
    pub fn len(&self) -> usize {
        let mut n = usize::from(self.record.is_some());
        for child in self.children.values() {
            n += child.len();
        }
        n
    }

    /// True if no records exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every record.
    pub fn for_each<'a, F>(&'a self, f: &mut F)
    where
        F: FnMut(&'a LocalRecord),
    {
        if let Some(r) = &self.record {
            f(r);
        }
        for child in self.children.values() {
            child.for_each(f);
        }
    }

    /// Visit every record mutably.
    pub fn for_each_mut<F>(&mut self, f: &mut F)
    where
        F: FnMut(&mut LocalRecord),
    {
        if let Some(r) = &mut self.record {
            f(r);
        }
        for child in self.children.values_mut() {
            child.for_each_mut(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::record::Status;
    use csaw_simnet::time::SimTime;
    use csaw_simnet::topology::Asn;
    use csaw_webproto::url::Url;

    fn rec(path: &str, status: Status) -> LocalRecord {
        let url = Url::parse(&format!("http://host.example{path}")).unwrap();
        match status {
            Status::Blocked => LocalRecord::blocked(
                url,
                Asn(1),
                SimTime::ZERO,
                vec![csaw_censor::BlockingType::HttpDrop],
            ),
            _ => LocalRecord::not_blocked(url, Asn(1), SimTime::ZERO),
        }
    }

    fn segs(path: &str) -> impl Iterator<Item = &str> {
        path.split('/').filter(|s| !s.is_empty())
    }

    #[test]
    fn exact_and_lpm() {
        let mut t = PathTrie::new();
        t.insert(segs("/"), rec("/", Status::NotBlocked));
        t.insert(segs("/banned"), rec("/banned", Status::Blocked));
        // Exact.
        assert_eq!(t.get(segs("/banned")).unwrap().status, Status::Blocked);
        assert_eq!(t.get(segs("/")).unwrap().status, Status::NotBlocked);
        assert!(t.get(segs("/other")).is_none());
        // LPM: deeper paths inherit the most specific ancestor.
        assert_eq!(
            t.lpm(segs("/banned/page.html")).unwrap().status,
            Status::Blocked
        );
        assert_eq!(
            t.lpm(segs("/other/page.html")).unwrap().status,
            Status::NotBlocked
        );
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = PathTrie::new();
        t.insert(segs("/"), rec("/", Status::Blocked));
        t.insert(segs("/a/b"), rec("/a/b", Status::NotBlocked));
        assert_eq!(t.lpm(segs("/a/b/c")).unwrap().status, Status::NotBlocked);
        assert_eq!(t.lpm(segs("/a")).unwrap().status, Status::Blocked);
    }

    #[test]
    fn lpm_none_when_no_ancestor() {
        let mut t = PathTrie::new();
        t.insert(segs("/deep/only"), rec("/deep/only", Status::Blocked));
        assert!(t.lpm(segs("/elsewhere")).is_none());
        assert!(t.lpm(ROOT).is_none());
    }

    #[test]
    fn remove_prunes_branches() {
        let mut t = PathTrie::new();
        t.insert(segs("/a/b/c"), rec("/a/b/c", Status::Blocked));
        assert_eq!(t.len(), 1);
        let removed = t.remove(segs("/a/b/c")).unwrap();
        assert_eq!(removed.status, Status::Blocked);
        assert!(t.is_empty());
        assert!(t.children.is_empty(), "branches pruned");
        assert!(t.remove(segs("/a/b/c")).is_none());
    }

    #[test]
    fn retain_filters_and_counts() {
        let mut t = PathTrie::new();
        t.insert(segs("/"), rec("/", Status::NotBlocked));
        t.insert(segs("/x"), rec("/x", Status::Blocked));
        t.insert(segs("/y/z"), rec("/y/z", Status::NotBlocked));
        let removed = t.retain(|r| r.status == Status::Blocked);
        assert_eq!(removed, 2);
        assert_eq!(t.len(), 1);
        assert!(t.lpm(segs("/x")).is_some());
    }

    #[test]
    fn for_each_visits_all() {
        let mut t = PathTrie::new();
        for p in ["/", "/a", "/a/b", "/c"] {
            t.insert(segs(p), rec(p, Status::Blocked));
        }
        let mut n = 0;
        t.for_each(&mut |_r| n += 1);
        assert_eq!(n, 4);
        assert_eq!(t.len(), 4);
    }
}
