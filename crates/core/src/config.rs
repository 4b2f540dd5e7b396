//! [`SystemConfig`]: the one configuration surface for booting an
//! analyzed system.
//!
//! Historically every knob had its own entry point — `NDroidSystem::new`
//! picked the mode, `quiet()` silenced the trace, ablation code poked
//! `ndroid_analysis_mut()`, and the differential oracle swapped engines
//! through `use_reference_engine()`. The batch farm ([`crate::batch`])
//! runs thousands of systems from a work list, so construction has to
//! be a value, not a call sequence: a `SystemConfig` fully describes a
//! run and [`crate::NDroidSystem::from_config`] realizes it.

use crate::system::Mode;
use ndroid_provenance::Level;

/// How native code is executed and traced — the one fast-path knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NativeEngine {
    /// Superblock dispatch: straight-line runs are decoded and lowered
    /// to Table V effect programs once, cached per code page, and
    /// replayed as one dispatch per block (the production path, and
    /// the paper's §V-C hot-instruction cache).
    #[default]
    Blocks,
    /// The uncached per-instruction stepper: every instruction is
    /// fetched, decoded, executed, re-identified from guest memory by
    /// the tracer and lowered afresh.
    Stepper,
    /// The differential oracle's reference engine: the stepper with
    /// the independent `ref_propagate` in place of the Table V lowering
    /// (see [`crate::oracle`]). NDroid mode only; other modes step.
    Reference,
}

impl std::fmt::Display for NativeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NativeEngine::Blocks => "blocks",
            NativeEngine::Stepper => "stepper",
            NativeEngine::Reference => "reference",
        };
        write!(f, "{s}")
    }
}

/// Overrides the §V-B rule for installing [`crate::SourcePolicy`]
/// records at JNI entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SourcePolicyOverride {
    /// The paper's rule: a policy is installed only for native methods
    /// "receiving tainted parameters".
    #[default]
    AsPaper,
    /// Install a policy for every JNI entry (taint initialization is
    /// still only performed for tainted parameters; this inflates the
    /// policy map the way an unconditional implementation would).
    Always,
    /// Never install policies: parameter taints are dropped at the
    /// Java→native boundary. An under-taint ablation — with it, NDroid
    /// degrades to TaintDroid's blindness for cases 1′–4.
    Never,
}

/// A complete description of one analyzed-system boot: mode, native
/// engine, verbosity, budget and policy overrides. Build one with the
/// fluent methods and hand it to [`crate::NDroidSystem::from_config`]:
///
/// ```
/// use ndroid_core::{Mode, NDroidSystem, NativeEngine, SystemConfig};
/// use ndroid_dvm::Program;
///
/// let sys = NDroidSystem::from_config(
///     Program::new(),
///     SystemConfig::new(Mode::NDroid)
///         .quiet(true)
///         .engine(NativeEngine::Stepper),
/// );
/// assert_eq!(sys.report().engine, NativeEngine::Stepper);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Which analysis configuration runs the app.
    pub mode: Mode,
    /// How native code is executed and traced.
    pub engine: NativeEngine,
    /// Verbosity: `true` disables trace recording (benchmarks/farms).
    pub quiet: bool,
    /// Guest instruction budget for the whole session.
    pub budget: u64,
    /// Whether multilevel hook gating is applied (ablation D1).
    pub gate_hooks: bool,
    /// Whether the §VII taint-protection extension records violations.
    pub protect_taints: bool,
    /// Source-policy installation rule at JNI entries.
    pub source_policies: SourcePolicyOverride,
    /// How much taint provenance is recorded ([`Level::Off`] keeps the
    /// hot path free of any recording work).
    pub provenance: Level,
    /// Provenance segment length: how many events the store's hot tier
    /// holds before sealing them into a compressed segment (0 clamps
    /// to 1). Memory stays bounded by the store's sealed-byte budget
    /// whatever the length.
    pub provenance_capacity: usize,
}

impl SystemConfig {
    /// The default configuration for `mode`: superblock engine, trace
    /// recording on, the stock budget, and the paper's source-policy
    /// rule.
    pub fn new(mode: Mode) -> SystemConfig {
        SystemConfig {
            mode,
            engine: NativeEngine::Blocks,
            quiet: false,
            budget: 200_000_000,
            gate_hooks: true,
            protect_taints: true,
            source_policies: SourcePolicyOverride::AsPaper,
            provenance: Level::Off,
            provenance_capacity: ndroid_provenance::DEFAULT_CAPACITY,
        }
    }

    /// Shorthand for `SystemConfig::new(Mode::NDroid)`.
    pub fn ndroid() -> SystemConfig {
        SystemConfig::new(Mode::NDroid)
    }

    /// Selects the analysis mode.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> SystemConfig {
        self.mode = mode;
        self
    }

    /// Selects the native engine.
    #[must_use]
    pub fn engine(mut self, engine: NativeEngine) -> SystemConfig {
        self.engine = engine;
        self
    }

    /// Shorthand for `engine(NativeEngine::Reference)`.
    #[must_use]
    pub fn reference(self) -> SystemConfig {
        self.engine(NativeEngine::Reference)
    }

    /// Disables (`true`) or enables (`false`) trace recording.
    #[must_use]
    pub fn quiet(mut self, quiet: bool) -> SystemConfig {
        self.quiet = quiet;
        self
    }

    /// Sets the guest instruction budget.
    #[must_use]
    pub fn budget(mut self, budget: u64) -> SystemConfig {
        self.budget = budget;
        self
    }

    /// Turns multilevel hook gating on or off (ablation D1).
    #[must_use]
    pub fn gate_hooks(mut self, enabled: bool) -> SystemConfig {
        self.gate_hooks = enabled;
        self
    }

    /// Turns the §VII taint protector on or off.
    #[must_use]
    pub fn protect_taints(mut self, enabled: bool) -> SystemConfig {
        self.protect_taints = enabled;
        self
    }

    /// Sets the source-policy installation rule.
    #[must_use]
    pub fn source_policies(mut self, rule: SourcePolicyOverride) -> SystemConfig {
        self.source_policies = rule;
        self
    }

    /// Sets the provenance recording level.
    #[must_use]
    pub fn provenance(mut self, level: Level) -> SystemConfig {
        self.provenance = level;
        self
    }

    /// Sets the provenance segment length.
    #[must_use]
    pub fn provenance_capacity(mut self, cap: usize) -> SystemConfig {
        self.provenance_capacity = cap;
        self
    }
}

impl Default for SystemConfig {
    /// Defaults to full NDroid, everything on.
    fn default() -> SystemConfig {
        SystemConfig::ndroid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_legacy_constructor() {
        let c = SystemConfig::new(Mode::TaintDroid);
        assert_eq!(c.mode, Mode::TaintDroid);
        assert_eq!(c.engine, NativeEngine::Blocks);
        assert!(!c.quiet);
        assert_eq!(c.budget, 200_000_000);
        assert!(c.gate_hooks);
        assert!(c.protect_taints);
        assert_eq!(c.source_policies, SourcePolicyOverride::AsPaper);
        assert_eq!(c.provenance, Level::Off);
        assert_eq!(c.provenance_capacity, ndroid_provenance::DEFAULT_CAPACITY);
    }

    #[test]
    fn builder_chains() {
        let c = SystemConfig::ndroid()
            .reference()
            .quiet(true)
            .budget(1_000)
            .gate_hooks(false)
            .protect_taints(false)
            .source_policies(SourcePolicyOverride::Never)
            .provenance(Level::Full)
            .provenance_capacity(64);
        assert_eq!(c.mode, Mode::NDroid);
        assert_eq!(c.engine, NativeEngine::Reference);
        assert!(c.quiet);
        assert_eq!(c.budget, 1_000);
        assert!(!c.gate_hooks && !c.protect_taints);
        assert_eq!(c.source_policies, SourcePolicyOverride::Never);
        assert_eq!(c.provenance, Level::Full);
        assert_eq!(c.provenance_capacity, 64);
    }

    #[test]
    fn native_engine_displays() {
        assert_eq!(NativeEngine::Blocks.to_string(), "blocks");
        assert_eq!(NativeEngine::Stepper.to_string(), "stepper");
        assert_eq!(NativeEngine::Reference.to_string(), "reference");
    }
}
