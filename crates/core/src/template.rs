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
//! A template is captured once its stage is ready, so every producer has
//! finished and its shuffle-byte table is final — until output is lost. The
//! one invalidation guard is therefore the loss itself: when the runtime
//! reports lost shuffle output of a stage, the executor drops every consumer
//! stage's template before any task launches again, and the next launch
//! re-captures it.

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
/// layout. Immutable once captured — invalidation drops the whole template.
///
/// The serve *disk* for each sender is deliberately not cached: it comes
/// from a per-machine round-robin cursor that advances once per positive
/// share at every launch, in capture order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageTemplate {
    /// Positive per-task sender shares, dependency-major and machine-minor.
    pub senders: Vec<TemplateSender>,
}
