//! Execution templates: plan-once/stamp-many caching of per-stage control
//! decisions (after *Execution Templates*, Mashayekhi et al. — see
//! PAPERS.md).
//!
//! The expensive part of launching a reduce multitask is re-deriving its
//! sender-share layout: a sweep over every machine's completed shuffle bytes
//! for every dependency, with a division per sender. That layout is
//! *identical for every task of the stage* — each task fetches
//! `total / n_tasks` bytes split across senders in proportion to where the
//! bytes landed — so the executor captures it once as a [`StageTemplate`] and
//! stamps per-task monotask DAGs from it arithmetically: compute at node 0,
//! one input node per positive sender share in capture order, the output
//! write last. Everything that genuinely varies per task (the executing
//! machine, serve-disk and write-disk cursors, straggle factors, stream ids)
//! is stamped at instantiation time. Stamping is the only way the executor
//! builds a task's DAG; [`crate::decompose::decompose`] stays as the
//! reference, and debug builds assert every launch against it.
//!
//! Validity is epoch-based: every producing stage carries a counter bumped
//! whenever its shuffle-byte table changes (a task completes, or a crash's
//! lineage recomputation zeroes a machine's bytes). A template records the
//! epochs it captured; a mismatch at instantiation forces a rebuild. Losing
//! shuffle outputs additionally drops consumer templates eagerly, so the
//! epoch check is a backstop rather than the only guard.

/// One sender entry of a captured shuffle layout: a machine holding a
/// positive share of every task's fetch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TemplateSender {
    /// Sender machine.
    pub machine: usize,
    /// Bytes each task of the stage fetches from this sender.
    pub bytes: f64,
    /// Whether the share lives on the sender's disk (false: in memory).
    pub via_disk: bool,
}

/// The captured control decision for one `(job, stage)`: the per-task sender
/// layout plus the producer epochs it was derived from. Immutable once
/// captured — invalidation replaces the whole template.
///
/// The serve *disk* for each sender is deliberately not cached: it comes
/// from a per-machine round-robin cursor that advances once per positive
/// share at every launch, in capture order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageTemplate {
    /// Positive per-task sender shares, dependency-major and machine-minor.
    pub senders: Vec<TemplateSender>,
    /// `shuffle_epoch` of each dependency (in spec order) at capture time;
    /// the template is valid while every producer's epoch still matches.
    pub dep_epochs: Vec<u64>,
}
