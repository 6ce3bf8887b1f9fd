//! Shard-kill fault plans for the supervised serving fleet.
//!
//! A [`ShardKillPlan`] names, in virtual work units, the instants at which
//! fleet shards crash. The fleet supervisor turns each kill into a bounded
//! down window (crash tick → restart tick, via
//! [`crate::BackoffPolicy::delay_units`]) so the whole outage schedule is a
//! pure function of the plan — chaos runs replay bit-identically.
//!
//! Plans are built in code from `(shard, tick)` pairs
//! ([`ShardKillPlan::new`]) and print as `shard@tick,…`, e.g.
//! `1@5000,1@9000,3@12000`. The same shard may be killed repeatedly;
//! kill ticks that land inside an earlier down window for that shard are
//! coalesced by the supervisor rather than stacking.

/// One scheduled shard crash, in virtual work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKill {
    /// Index of the shard to crash (fleet-relative, `0..shards`).
    pub shard: usize,
    /// Virtual tick at which the crash lands.
    pub at_units: u64,
}

/// A deterministic shard-kill schedule for the serving fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardKillPlan {
    kills: Vec<ShardKill>,
}

impl ShardKillPlan {
    /// The inert plan: no shard ever dies.
    pub fn off() -> Self {
        Self::default()
    }

    /// Build from explicit `(shard, at_units)` pairs, kept in canonical
    /// order (by shard, then by kill tick) with duplicates dropped, so
    /// the plan's identity is independent of entry order.
    pub fn new<I: IntoIterator<Item = (usize, u64)>>(kills: I) -> Self {
        let mut kills: Vec<ShardKill> =
            kills.into_iter().map(|(shard, at_units)| ShardKill { shard, at_units }).collect();
        kills.sort_by_key(|k| (k.shard, k.at_units));
        kills.dedup();
        ShardKillPlan { kills }
    }

    /// True when at least one kill is scheduled.
    pub fn is_active(&self) -> bool {
        !self.kills.is_empty()
    }

    /// All scheduled kills, in canonical order.
    pub fn kills(&self) -> &[ShardKill] {
        &self.kills
    }

    /// Kill ticks for one shard, ascending.
    pub fn kills_for(&self, shard: usize) -> Vec<u64> {
        self.kills.iter().filter(|k| k.shard == shard).map(|k| k.at_units).collect()
    }

    /// One-line human summary for banners and manifests.
    pub fn summary(&self) -> String {
        if !self.is_active() {
            return "off".to_owned();
        }
        self.kills
            .iter()
            .map(|k| format!("{}@{}", k.shard, k.at_units))
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_inactive() {
        assert!(!ShardKillPlan::off().is_active());
        assert_eq!(ShardKillPlan::off().summary(), "off");
    }

    #[test]
    fn kills_for_filters_and_sorts() {
        let plan = ShardKillPlan::new([(2, 900), (0, 100), (2, 300)]);
        assert!(plan.is_active());
        assert_eq!(plan.summary(), "0@100,2@300,2@900");
        assert_eq!(plan.kills_for(2), vec![300, 900]);
        assert_eq!(plan.kills_for(0), vec![100]);
        assert_eq!(plan.kills_for(1), Vec::<u64>::new());
    }

    #[test]
    fn entry_order_does_not_matter() {
        assert_eq!(ShardKillPlan::new([(3, 9), (1, 5)]), ShardKillPlan::new([(1, 5), (3, 9)]));
    }

    #[test]
    fn duplicate_kills_collapse() {
        let plan = ShardKillPlan::new([(1, 5), (1, 5)]);
        assert_eq!(plan.kills_for(1), vec![5]);
        assert_eq!(plan.kills().len(), 1);
    }
}
