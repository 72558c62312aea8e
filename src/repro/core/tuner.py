"""The lambda-Tune pipeline (paper §2, Algorithm 1).

1. Generate the prompt from workload + hardware + DBMS under the token
   budget (§3).
2. Sample k configurations from the LLM at a fixed temperature.
3. Parse each response into a validated :class:`Configuration`.
4. Identify the best candidate with bounded evaluation cost (§4-5).

``LambdaTune.tune`` returns the same :class:`TuningResult` the baseline
tuners produce, so the harness can compare all systems uniformly.

Every stage reports to a :class:`~repro.core.rounds.TuningObserver`
(no-op by default); :class:`repro.session.TuningSession` uses this to
journal the pipeline, and ``tune`` accepts a rehydrated resume point to
continue an interrupted run exactly where it stopped -- journaled
samples are not re-requested from the LLM and journaled selection
progress is not re-evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import Configuration, parse_config_script
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.prompt.template import PromptGenerator
from repro.core.result import TuningResult
from repro.core.rounds import NULL_OBSERVER, RoundCursor, SelectionState, TuningObserver
from repro.core.selector import ConfigurationSelector, SelectionResult
from repro.db.engine import DatabaseEngine
from repro.db.resources import ResourceBudget, cheapest_feasible_tier
from repro.errors import ConfigurationError, LLMError
from repro.llm.client import LLMClient
from repro.workloads.base import Query

#: Selection labels used in observer events and session journals.
SELECTION_PRIMARY = "primary"
SELECTION_FALLBACK = "fallback"


@dataclass(frozen=True, slots=True)
class LambdaTuneOptions:
    """Tuning hyper-parameters (paper §6.1 defaults)."""

    #: Number of LLM samples k (the paper evaluates exactly 5 configs).
    num_configs: int = 5
    #: Sampling temperature for configuration diversity.
    temperature: float = 0.7
    #: Token budget B for the workload-representation block.  ``None``
    #: means "no user budget": fit as much as the LLM's context allows
    #: (paper §2).
    token_budget: int | None = 512
    #: Initial round timeout t (seconds); the paper uses 10.
    initial_timeout: float = 10.0
    #: Geometric timeout factor alpha; the paper uses 10.
    alpha: float = 10.0
    #: Fold index-creation overheads into timeouts (§4; ablation 6.4.1).
    adaptive_timeout: bool = True
    #: Order queries with the DP scheduler (§5.3; ablation 6.4.2).
    use_scheduler: bool = True
    #: Create indexes lazily before their first relevant query (§5.1).
    lazy_indexes: bool = True
    #: Compress the workload; False pastes raw SQL (ablation 6.4.4).
    use_compressor: bool = True
    #: Hide identifiers from the LLM (ablation 6.4.3).
    obfuscate: bool = False
    #: Restrict configurations to parameter settings (Fig. 3 scenarios).
    parameters_only: bool = False
    #: Restrict configurations to index recommendations (Fig. 8).
    indexes_only: bool = False
    #: ILP backend for snippet selection.
    solver_method: str = "auto"
    #: Base seed for LLM sampling.
    seed: int = 0
    #: Resource budget the recommended configuration must fit under
    #: (peak memory / disk footprint).  ``None`` -- the default -- keeps
    #: the paper's latency-only objective and is bit-identical to a
    #: build without this field; with a budget, infeasible candidates
    #: are quarantined exactly like inapplicable scripts.
    budget: ResourceBudget | None = None

    def __post_init__(self) -> None:
        # Fail at construction, not rounds deep inside a tune.
        if self.num_configs < 1:
            raise ConfigurationError(
                f"num_configs must be at least 1, got {self.num_configs!r}"
            )
        if self.budget is not None and not isinstance(self.budget, ResourceBudget):
            raise ConfigurationError(
                f"budget must be a ResourceBudget, got {self.budget!r}"
            )

    def ablated(self, **changes: object) -> "LambdaTuneOptions":
        """A copy with selected fields changed (ablation studies)."""
        return replace(self, **changes)


class LambdaTune:
    """LLM-driven database tuning with bounded evaluation cost."""

    name = "lambda-tune"

    def __init__(
        self,
        engine: DatabaseEngine,
        llm: LLMClient,
        options: LambdaTuneOptions | None = None,
    ) -> None:
        self._engine = engine
        self._llm = llm
        self.options = options or LambdaTuneOptions()
        #: (ordinal, reason) for LLM samples dropped by the last
        #: ``sample_configurations`` call.
        self.last_dropped_samples: list[tuple[int, str]] = []
        #: Terminal LLM errors behind those drops.
        self.last_llm_errors: list[LLMError] = []

    @property
    def engine(self) -> DatabaseEngine:
        """The engine under tuning (exposed for session journaling)."""
        return self._engine

    @property
    def llm(self) -> LLMClient:
        """The LLM client samples are drawn from."""
        return self._llm

    # -- pipeline stages (public so tests and ablations can call them) ----------

    def generate_prompt(self, queries: list[Query]):
        generator = PromptGenerator(
            self._engine,
            solver_method=self.options.solver_method,
            use_compressor=self.options.use_compressor,
            obfuscate=self.options.obfuscate,
        )
        budget = self.options.token_budget
        if budget is None:
            # No user budget: fill up to the model's own context limit,
            # reserving room for the fixed template text.
            budget = max(1, self._llm.max_input_tokens - 200)
        return generator.generate(queries, budget)

    def sample_configurations(
        self,
        prompt,
        *,
        observer: TuningObserver | None = None,
        known: dict[int, tuple] | None = None,
    ) -> list[Configuration]:
        """Sample and parse the k candidate scripts.

        Transient LLM failures are retried with backoff inside
        :meth:`LLMClient.complete_with_retry`; a sample whose retries
        are exhausted (or whose script is rejected outright) is dropped
        rather than aborting the tune, so a flaky provider degrades the
        candidate pool instead of the whole pipeline.  Dropped samples
        are recorded in :attr:`last_dropped_samples`.

        ``known`` maps ordinals to journaled outcomes from an
        interrupted session -- ``("accepted", config)`` or
        ``("dropped", reason, was_llm_error)`` -- which are replayed
        without touching the LLM (and without re-notifying the
        observer; their journal events already exist).
        """
        observer = observer or NULL_OBSERVER
        known = known or {}
        self.last_dropped_samples = []
        self.last_llm_errors = []
        configs: list[Configuration] = []
        for ordinal in range(self.options.num_configs):
            record = known.get(ordinal)
            if record is not None:
                if record[0] == "accepted":
                    configs.append(record[1])
                else:
                    _, reason, was_llm_error = record
                    self.last_dropped_samples.append((ordinal, reason))
                    if was_llm_error:
                        self.last_llm_errors.append(LLMError(reason))
                continue
            try:
                response = self._llm.complete_with_retry(
                    prompt.text,
                    temperature=self.options.temperature,
                    seed=self.options.seed + ordinal,
                )
            except LLMError as error:
                self.last_dropped_samples.append((ordinal, str(error)))
                self.last_llm_errors.append(error)
                observer.sample_dropped(ordinal, str(error), llm_error=True)
                continue
            text = response.text
            if prompt.obfuscator is not None:
                text = prompt.obfuscator.decode_text(text)
            try:
                config = parse_config_script(
                    text,
                    self._engine.knob_space,
                    self._engine.catalog,
                    name=f"llm-config-{ordinal + 1}",
                    strict=True,
                )
            except ConfigurationError as error:
                self.last_dropped_samples.append((ordinal, str(error)))
                observer.sample_dropped(ordinal, str(error))
                continue
            if self.options.parameters_only:
                config = config.without_indexes()
            if self.options.indexes_only:
                config = config.indexes_only()
            configs.append(config)
            observer.sample_accepted(ordinal, config)
        return configs

    def select_best(
        self,
        queries: list[Query],
        configs: list[Configuration],
        *,
        observer: TuningObserver | None = None,
        state: SelectionState | None = None,
        cursor: RoundCursor | None = None,
    ):
        evaluator = ConfigurationEvaluator(
            self._engine,
            use_scheduler=self.options.use_scheduler,
            lazy_indexes=self.options.lazy_indexes,
            cluster_seed=self.options.seed,
            budget=self.options.budget,
        )
        selector = ConfigurationSelector(
            self._engine,
            evaluator,
            initial_timeout=self.options.initial_timeout,
            alpha=self.options.alpha,
            adaptive_timeout=self.options.adaptive_timeout,
        )
        return selector.select(
            queries, configs, state=state, cursor=cursor, observer=observer
        )

    # -- Algorithm 1 -------------------------------------------------------------

    def tune(
        self,
        queries: list[Query],
        *,
        workload_name: str = "",
        observer: TuningObserver | None = None,
        resume=None,
    ) -> TuningResult:
        """Run the full pipeline and return the comparable result.

        Failure handling (chaos-tested): unusable LLM samples shrink the
        candidate pool; candidates that crash the engine are quarantined
        by selection; and if *nothing* survives, the tuner falls back to
        the default configuration instead of raising (the result's
        ``extras['fallback']`` records the degradation).

        ``resume`` is a :class:`repro.session.ResumePoint` rehydrated
        from a journal; journaled stages are replayed from it instead of
        re-executed, and the run continues mid-selection if that is
        where it stopped.
        """
        if not queries:
            raise ConfigurationError("cannot tune an empty workload")
        observer = observer or NULL_OBSERVER
        clock = self._engine.clock
        start = resume.start_clock if resume is not None else clock.now

        prompt_tokens, coverage, configs = self._sampling_stage(
            queries, observer, resume
        )
        dropped = list(self.last_dropped_samples)
        if not configs and len(self.last_llm_errors) == self.options.num_configs:
            # Every sample died with a terminal LLM error: the provider
            # is unreachable.  That is an operator problem, not a tuning
            # outcome -- propagate instead of silently recommending the
            # default configuration.
            raise self.last_llm_errors[-1]

        selection = (
            self._run_selection(
                SELECTION_PRIMARY, queries, configs, observer, resume
            )
            if configs
            else None
        )
        fallback = selection is None or selection.best.config is None
        if fallback:
            failed_meta = selection.meta if selection is not None else {}
            # Evaluate the default configuration (no setting changes, no
            # indexes) as the last-resort candidate: it is always
            # *applicable*; if the engine faults even under it, the
            # returned selection reports that too and the caller ships
            # the default with an unknown workload time -- the tuner
            # still never raises.
            selection = self._run_selection(
                SELECTION_FALLBACK,
                queries,
                [Configuration(name="default-config")],
                observer,
                resume,
                carryover_meta=failed_meta,
            )
            # Keep the quarantined candidates' records visible alongside
            # the fallback evaluation.
            for name, meta in failed_meta.items():
                selection.meta.setdefault(name, meta)
            if selection.best.config is None:
                # Even the default configuration faulted: report it as
                # the (only applicable) recommendation with an unknown
                # workload time rather than raising mid-tune.
                selection.best.config = Configuration(name="default-config")

        result = TuningResult(
            tuner=self.name,
            workload=workload_name,
            system=self._engine.system,
            best_time=selection.best.time,
            best_config=selection.best.config,
            configs_evaluated=len(configs),
            tuning_seconds=clock.now - start,
            extras={
                "prompt_tokens": prompt_tokens,
                "rounds": selection.rounds,
                "meta": selection.meta,
                "fallback": fallback,
                "dropped_samples": dropped,
                "failed_configs": sorted(
                    name for name, m in selection.meta.items() if m.failed
                ),
                "compression_coverage": coverage,
            },
        )
        if self.options.budget is not None:
            # Budget-objective reporting.  Keyed additions only: the
            # fingerprint's key set is fixed, and with budget=None (the
            # default) this branch never runs, so latency-only results
            # stay byte-identical.
            budget = self.options.budget
            result.extras["budget"] = budget.describe()
            if selection.best.config is not None:
                footprint = self._engine.resource_footprint(
                    selection.best.config.settings,
                    selection.best.config.indexes,
                )
                tier = cheapest_feasible_tier(
                    footprint, method=self.options.solver_method
                )
                result.extras["resource_footprint"] = {
                    "peak_memory_bytes": footprint.peak_memory_bytes,
                    "disk_bytes": footprint.disk_bytes,
                }
                result.extras["feasible"] = budget.admits(footprint)
                result.extras["cheapest_tier"] = tier.name if tier else None
        for time, best_time in selection.trace:
            result.record(time, best_time)
        observer.done(result)
        return result

    @staticmethod
    def tune_many(
        jobs: list,
        *,
        max_workers: int = 1,
        cache_dir=None,
    ) -> list[TuningResult]:
        """Tune N workloads over a shared artifact cache.

        Thin entry point to :func:`repro.core.batch.tune_many`; see that
        module for the worker and determinism contract.  ``jobs`` is a
        list of :class:`repro.core.batch.BatchJob`.
        """
        from repro.core.batch import tune_many as _tune_many

        return _tune_many(jobs, max_workers=max_workers, cache_dir=cache_dir)

    # -- stage drivers -----------------------------------------------------------

    def _sampling_stage(
        self, queries: list[Query], observer: TuningObserver, resume
    ) -> tuple[int, float | None, list[Configuration]]:
        """Prompt + sampling, skipping whatever the journal already has.

        Prompt generation is pure (no clock advance, deterministic for a
        given workload and options), so re-running it on resume is safe;
        it is skipped only when every sample outcome is already known
        and the prompt text is therefore unneeded.
        """
        known = resume.samples if resume is not None else {}
        journaled_prompt = resume is not None and resume.prompt_tokens is not None
        if journaled_prompt and len(known) >= self.options.num_configs:
            configs = self.sample_configurations(
                None, observer=observer, known=known
            )
            return resume.prompt_tokens, resume.compression_coverage, configs

        prompt = self.generate_prompt(queries)
        if journaled_prompt:
            prompt_tokens = resume.prompt_tokens
            coverage = resume.compression_coverage
        else:
            observer.prompt_generated(prompt)
            prompt_tokens = prompt.tokens
            coverage = prompt.compression.coverage if prompt.compression else None
        configs = self.sample_configurations(prompt, observer=observer, known=known)
        return prompt_tokens, coverage, configs

    def _run_selection(
        self,
        label: str,
        queries: list[Query],
        configs: list[Configuration],
        observer: TuningObserver,
        resume,
        carryover_meta: dict | None = None,
    ) -> SelectionResult:
        """Run (or resume, or replay) one labeled selection."""
        replay = resume.selections.get(label) if resume is not None else None
        if replay is not None and replay.finished:
            # The journal saw this selection through to the end; its
            # replayed state IS the result -- never re-enter the driver,
            # final-pass updates are not idempotent.
            return replay.state.result()
        if replay is not None:
            state, cursor = replay.state, replay.cursor
            configs = replay.configs
        else:
            state = cursor = None
            observer.selection_started(label, configs, carryover_meta)
        selection = self.select_best(
            queries, configs, observer=observer, state=state, cursor=cursor
        )
        observer.selection_finished(label, selection)
        return selection
