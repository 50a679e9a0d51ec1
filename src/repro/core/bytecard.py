"""The ByteCard facade: the full framework wired together.

:meth:`ByteCard.build` runs the production bootstrap end to end --
preprocess, train in ModelForge, publish to the registry, load through the
Model Loader (size + health validation), assemble the serving estimators,
and run the Model Monitor to establish fallback decisions.  The resulting
object is a :class:`CountEstimator` *and* :class:`NdvEstimator` with the
paper's fallback semantics: queries touching a gated table are served by
the traditional estimator instead.

The facade owns the model-keyed evidence and plan caches every rebuilt
estimator shares, and is the one source of "answers changed" events
(:meth:`ByteCard.add_invalidation_listener`, which the serving tier's
estimate cache subscribes to).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import ByteCardConfig
from repro.core.engine import BNInferenceEngine, RBXInferenceEngine
from repro.core.loader import ModelLoader
from repro.core.modelforge import ModelForgeService
from repro.core.monitor import ModelMonitor, MonitorReport
from repro.core.preprocessor import ModelPreprocessor
from repro.core.registry import ModelRegistry
from repro.core.serialization import deserialize_rbx
from repro.core.validator import ModelValidator
from repro.datasets.base import DatasetBundle
from repro.engine.session import EstimatorSuite
from repro.errors import EstimationError, ModelError
from repro.estimators.base import CountEstimator, NdvEstimator
from repro.estimators.bn.model import TreeBayesNet, new_evidence_cache
from repro.estimators.factorjoin.estimator import FactorJoinEstimator
from repro.estimators.factorjoin.plans import new_plan_cache
from repro.estimators.rbx.estimator import RBXNdvEstimator
from repro.estimators.traditional.hyperloglog import SketchNdvEstimator
from repro.estimators.traditional.selinger import SelingerEstimator
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import AggKind, CardQuery


@dataclass
class ByteCardStatus:
    """Introspection snapshot for examples and tests."""

    loaded_models: list[tuple[str, str]] = field(default_factory=list)
    fallback_tables: set[str] = field(default_factory=set)
    calibrated_columns: list[tuple[str, str]] = field(default_factory=list)
    monitor_reports: list[MonitorReport] = field(default_factory=list)


class ByteCard(CountEstimator, NdvEstimator):
    """The deployed framework, serving COUNT and NDV estimates."""

    name = "bytecard"

    def __init__(
        self,
        bundle: DatasetBundle,
        config: ByteCardConfig | None = None,
        registry: ModelRegistry | None = None,
    ):
        self.bundle = bundle
        self.catalog = bundle.catalog
        self.config = config or ByteCardConfig()
        self.registry = registry or ModelRegistry()
        self.obs = MetricsRegistry(enabled=self.config.enable_observability)
        self.validator = ModelValidator(self.config.max_model_bytes)
        self.forge_service = ModelForgeService(self.registry, self.config)
        self.monitor = ModelMonitor(bundle, self.config, metrics=self.obs)
        self.preprocessor = ModelPreprocessor(
            self.catalog, self.config.join_bucket_count
        )
        # Traditional estimators kept warm for fallback.
        self._traditional_count = SelingerEstimator(self.catalog)
        self._traditional_ndv = SketchNdvEstimator(self.catalog)
        # Serving state, assembled by refresh().
        self._factorjoin: FactorJoinEstimator | None = None
        self._rbx: RBXNdvEstimator | None = None
        #: predicate -> bin-mask vectors and cross-query plan scopes, handed
        #: to every FactorJoin estimator refresh() builds; entries are keyed
        #: by the BN they came from, so nothing has to invalidate them
        self.evidence_cache = new_evidence_cache(self.obs)
        self.plan_cache = new_plan_cache(self.obs)
        self._invalidation_listeners: list[Callable] = []
        #: runtime feedback ring (:meth:`enable_feedback`): observed
        #: (estimate, actual) pairs from the execution path, consumed by the
        #: monitor and ranked on by the forge's retrain priorities
        self.feedback_log = None
        self._fallback_tables: frozenset[str] = frozenset()
        self.monitor_reports: list[MonitorReport] = []
        #: named strategy registry (:meth:`strategies`), built lazily
        self._strategies = None
        self._rbx_samples = {
            name: self.catalog.table(name).sample(
                min(self.config.rbx_sample_rows, len(self.catalog.table(name))),
                _sample_rng(bundle.seed, name),
            )
            for name in self.catalog.table_names()
        }
        self.loader = ModelLoader(
            self.registry,
            self.validator,
            engine_factory=self._make_engine,
            max_total_bytes=self.config.max_total_bytes,
            metrics=self.obs,
        )

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        bundle: DatasetBundle,
        config: ByteCardConfig | None = None,
        registry: ModelRegistry | None = None,
        run_monitor: bool = True,
    ) -> "ByteCard":
        """Train, publish, load, assemble, and (optionally) monitor."""
        bytecard = cls(bundle, config=config, registry=registry)
        bytecard.forge_service.train_count_models(bundle)
        bytecard.forge_service.train_rbx_universal()
        bytecard.refresh()
        if run_monitor:
            bytecard.run_monitor()
        return bytecard

    @classmethod
    def from_store(
        cls,
        bundle: DatasetBundle,
        store_dir,
        config: ByteCardConfig | None = None,
        run_monitor: bool = False,
    ) -> "ByteCard":
        """Warm-start from a persistent artifact store: **zero training**.

        Every current artifact in the store is republished into a fresh
        registry and loaded through the normal validation path; the
        instance serves estimates immediately.  Raises
        :class:`~repro.errors.ModelError` when the store holds nothing
        (nothing to serve from).
        """
        from repro.forge.manager import raise_if_incomplete
        from repro.forge.store import ArtifactStore

        bytecard = cls(bundle, config=config)
        store = ArtifactStore(store_dir, metrics=bytecard.obs)
        raise_if_incomplete(store)
        store.sync_registry(bytecard.registry)
        bytecard.refresh()
        if run_monitor:
            bytecard.run_monitor()
        return bytecard

    def forge(self, store_dir, forge_config=None, clock=None) -> "object":
        """An asynchronous lifecycle manager bound to this instance.

        Returns a :class:`repro.forge.ForgeManager`: background training
        workers, a persistent versioned artifact store at ``store_dir``,
        and a drift-triggered retrain loop subscribed to this instance's
        Model Monitor.  Current models are persisted on creation (unless
        the config says otherwise), so :meth:`from_store` can warm-start a
        future process from the same directory.  ``clock`` (see
        :class:`repro.utils.clock.Clock`) puts the training scheduler on an
        injected time source -- the streaming soak runs it on simulated
        time.
        """
        from repro.forge import ArtifactStore, ForgeConfig, ForgeManager

        forge_config = forge_config or ForgeConfig()
        store = ArtifactStore(
            store_dir, retention=forge_config.retention, metrics=self.obs
        )
        return ForgeManager(self, store, forge_config, clock=clock)

    def _make_engine(self, kind: str, name: str):
        if kind == "bn":
            return BNInferenceEngine(self.catalog, self.validator)
        if kind == "rbx":
            return RBXInferenceEngine(
                self.catalog, self.validator, self._rbx_samples
            )
        raise ModelError(f"no inference engine for model kind {kind!r}")

    def add_invalidation_listener(
        self, listener: Callable[[frozenset[str] | None], None]
    ) -> None:
        """Call ``listener(tables)`` whenever answers on ``tables`` may have
        changed (``None``: on every table) -- after :meth:`refresh` has
        installed the rebuilt estimators, and when a table's fallback gate
        flips."""
        self._invalidation_listeners.append(listener)

    def _invalidate(self, tables: frozenset[str] | None) -> None:
        for listener in self._invalidation_listeners:
            listener(tables)

    def refresh(self) -> None:
        """One Model Loader pass, then reassemble the serving estimators.

        Invalidation listeners run last, so a request that sees the new
        cache generation also sees the new estimators.
        """
        report = self.loader.refresh()
        models: dict[str, TreeBayesNet] = {}
        for kind, name in self.loader.loaded_keys():
            if kind != "bn" or "@shard" in name:
                continue
            engine = self.loader.get(kind, name)
            assert isinstance(engine, BNInferenceEngine)
            if engine.model is not None:
                models[name] = engine.model
        if models:
            # Assemble on the grid the models were *trained* with; the
            # live catalog may have mutated since (streaming ingestion)
            # and a rebuilt grid would misalign with the published BNs.
            bucketizer = self.forge_service.training_bucketizer()
            if bucketizer is None:
                bucketizer = self.preprocessor.build_join_buckets()
            self._factorjoin = FactorJoinEstimator(
                self.catalog,
                models,
                bucketizer,
                metrics=self.obs,
                plan_cache=self.plan_cache,
                evidence_cache=self.evidence_cache,
            )
        universal = self.loader.get("rbx", "universal")
        if isinstance(universal, RBXInferenceEngine) and universal.network is not None:
            rbx = RBXNdvEstimator(
                self.catalog, universal.network, samples=self._rbx_samples
            )
            # Install any published per-column calibrated weights.
            for kind, name in self.loader.loaded_keys():
                if kind == "rbx" and name != "universal" and "." in name:
                    engine = self.loader.get(kind, name)
                    assert isinstance(engine, RBXInferenceEngine)
                    if engine.network is not None:
                        table, column = name.split(".", 1)
                        rbx.install_calibrated(table, column, engine.network)
            self._rbx = rbx
        if report.changed_keys():
            self._invalidate(report.changed_tables())

    # ------------------------------------------------------------------
    # Monitoring and calibration
    # ------------------------------------------------------------------
    def run_monitor(self, fine_tune: bool = True) -> list[MonitorReport]:
        """Gate COUNT models; detect and calibrate problematic NDV columns."""
        reports: list[MonitorReport] = []
        if self._factorjoin is not None:
            for table in sorted(self._factorjoin.models):
                report = self.reassess_table(table)
                assert report is not None  # the table has a model
                reports.append(report)
        if self._rbx is not None:
            for table, column in self.bundle.high_ndv_columns:
                report = self.monitor.assess_ndv_column(table, column, self._rbx)
                reports.append(report)
                # Only a *failed* assessment triggers calibration; an
                # untested column has nothing to fine-tune against.
                if report.passed is False and fine_tune:
                    self._calibrate_column(table, column)
        self.monitor_reports = reports
        return reports

    def reassess_table(self, table: str) -> MonitorReport | None:
        """Gate one table's COUNT model and update its fallback state.

        The forge's post-retrain revalidation hook: a passing assessment
        lifts the table's traditional-estimator fallback, a failing *or
        untested* one (re)imposes it.  Returns ``None`` when no learned
        model serves the table.
        """
        if self._factorjoin is None or table not in self._factorjoin.models:
            return None
        report = self.monitor.assess_count_model(
            table, self._factorjoin, strategy="learned"
        )
        # Failed *or* untested (passed is None): an unassessed model must
        # not serve as if it had been vetted.
        self.set_fallback(table, not report.passed)
        return report

    @property
    def fallback_tables(self) -> frozenset[str]:
        """Tables gated onto the traditional estimator (see :meth:`set_fallback`)."""
        return self._fallback_tables

    def set_fallback(self, table: str, fallback: bool) -> None:
        """Gate ``table`` onto (or lift it off) the traditional estimator.

        The one writer of :attr:`fallback_tables`: a flip invalidates the
        table's cached answers, a no-op notifies nobody.
        """
        gated = self._fallback_tables
        gated = gated | {table} if fallback else gated - {table}
        if gated != self._fallback_tables:
            self._fallback_tables = gated
            self._invalidate(frozenset((table,)))

    def enable_feedback(self, capacity: int = 4096):
        """Create (or return) the runtime cardinality feedback log.

        The returned :class:`repro.feedback.FeedbackLog` is attached to the
        Model Monitor (so COUNT assessments consume observed evidence in
        place of a share of their synthetic test queries) and handed to any
        service created by :meth:`serve` afterwards.  Wire it into an
        :class:`~repro.engine.session.EngineSession` with
        ``EngineConfig(enable_feedback=True)`` -- the session inherits it
        through the service or this facade automatically.
        """
        if self.feedback_log is None:
            from repro.feedback import FeedbackLog

            self.feedback_log = FeedbackLog(capacity=capacity, registry=self.obs)
            self.monitor.attach_feedback(self.feedback_log)
        return self.feedback_log

    def reassess_from_feedback(self, table: str) -> MonitorReport | None:
        """Gate one table's COUNT model on runtime feedback alone.

        Unlike :meth:`reassess_table` this issues **zero** synthetic test
        queries: the verdict comes entirely from observed (estimate, actual)
        pairs the executor captured.  Returns ``None`` when no feedback log
        is attached or it holds no evidence for ``table``; fallback state is
        updated only on a definitive verdict.
        """
        report = self.monitor.assess_from_feedback(table)
        if report is None:
            return None
        if report.passed is not None:
            self.set_fallback(table, not report.passed)
        self.monitor_reports.append(report)
        return report

    def monitor_and_heal(self, max_cycles: int = 2) -> list[MonitorReport]:
        """The self-healing loop around a data-distribution shift.

        The paper's lifecycle when the Model Monitor "detects that the
        performance of models is decreased due to the shift of data
        distribution": the affected table falls back to the traditional
        estimator immediately, an ingestion-style signal marks it dirty,
        ModelForge retrains it on (fresh samples of) the current data, the
        Model Loader picks up the newer timestamp, and the monitor
        re-assesses -- lifting the fallback once the retrained model passes.
        """
        from repro.core.modelforge import IngestionSignal

        reports = self.run_monitor(fine_tune=False)
        for _cycle in range(max_cycles):
            failing = sorted(self.fallback_tables)
            if not failing:
                break
            for table in failing:
                self.forge_service.ingest_signal(
                    IngestionSignal(table=table, source="monitor-drift")
                )
            self.forge_service.run_training_cycle(self.bundle)
            self.refresh()
            reports = self.run_monitor(fine_tune=False)
        self.monitor_reports = reports
        return reports

    def _calibrate_column(self, table: str, column: str) -> None:
        """The calibration protocol: fine-tune, validate, install."""
        assert self._rbx is not None
        samples = self.monitor.collect_column_samples(table, column)
        self.forge_service.fine_tune_column(self._rbx.model, table, column, samples)
        record = self.registry.latest("rbx", f"{table}.{column}")
        assert record is not None
        tuned, _meta = deserialize_rbx(record.blob)
        # Validate before installing (the paper: "only integrates a RBX
        # model ... once the Monitor has validated the new parameters").
        probe = self._rbx.calibrated.get((table, column))
        self._rbx.install_calibrated(table, column, tuned)
        recheck = self.monitor.assess_ndv_column(table, column, self._rbx)
        if (
            recheck.passed is False
            and recheck.p90 is not None
            and recheck.p90 >= self.config.ndv_finetune_trigger
        ):
            # Tuning did not help enough; keep it only if it improved.
            baseline = self.monitor.assess_ndv_column(
                table,
                column,
                _WithoutCalibration(self._rbx, table, column),
            )
            if baseline.p90 is not None and baseline.p90 <= recheck.p90:
                if probe is None:
                    del self._rbx.calibrated[(table, column)]
                else:
                    self._rbx.calibrated[(table, column)] = probe

    # ------------------------------------------------------------------
    # Serving (CountEstimator / NdvEstimator)
    # ------------------------------------------------------------------
    def _needs_fallback(self, query: CardQuery) -> bool:
        return any(t in self._fallback_tables for t in query.tables)

    def estimate_count(self, query: CardQuery) -> float:
        if self._factorjoin is None:
            return self._traditional_count.estimate_count(query)
        if self._needs_fallback(query):
            return self._traditional_count.estimate_count(query)
        missing = [t for t in query.tables if t not in self._factorjoin.models]
        if missing:
            return self._traditional_count.estimate_count(query)
        return self._factorjoin.estimate_count(query)

    @property
    def last_pass_stats(self):
        """Pass accounting of this thread's last join estimate (or None)."""
        if self._factorjoin is None:
            return None
        return self._factorjoin.last_pass_stats

    def estimate_count_batch(
        self, table: str, queries: list[CardQuery]
    ) -> list[float]:
        """A direct batched call into the ``(bins, B)`` sweep: each query
        is one column (:meth:`estimate_count` answers the batch of one).

        Single-table batches must all be on ``table``; a batch holding any
        join goes through FactorJoin's shared-plan path.  Any query touching
        a gated or unmodeled table sends the whole batch to the traditional
        estimator, mirroring :meth:`estimate_count`.
        """
        if self._factorjoin is None:
            return [self._traditional_count.estimate_count(q) for q in queries]
        tables: set[str] = set()
        for query in queries:
            tables.update(query.tables)
        if any(
            t in self._fallback_tables or t not in self._factorjoin.models
            for t in tables
        ):
            return [self._traditional_count.estimate_count(q) for q in queries]
        if any(not query.is_single_table() for query in queries):
            return self._factorjoin.estimate_join_batch(queries)
        return self._factorjoin.estimate_count_batch(table, queries)

    def selectivity(self, query: CardQuery) -> float:
        if (
            self._factorjoin is None
            or self._needs_fallback(query)
            or query.tables[0] not in self._factorjoin.models
        ):
            return self._traditional_count.selectivity(query)
        return self._factorjoin.selectivity(query)

    def shard_selectivity(
        self, table: str, shard: int, query: CardQuery
    ) -> float | None:
        """Selectivity from the shard-specialized BN, or None if unavailable.

        The optimizer's partition planner calls this when zone-map pruning
        pins a partition of a table partitioned by the shard key: partition
        index ``shard`` corresponds to the ``{table}@shard{shard}`` model
        ModelForge's ``train_sharded`` publishes (hash-mod shard function).
        Whole-table FactorJoin assembly deliberately skips these models;
        they are addressable only through this per-shard route.

        Predicates on columns the shard BN does not model -- notably the
        shard key itself -- are dropped before inference: within a pinned
        partition the key predicate's effect is already captured by the
        pruning that pinned it.
        """
        engine = self.loader.get("bn", f"{table}@shard{shard}")
        model = getattr(engine, "model", None)
        if model is None:
            return None
        modeled = getattr(model, "columns", ())
        predicates = [
            p
            for p in query.predicates
            if p.table == table and p.column in modeled
        ]
        if not predicates:
            return None
        try:
            return float(model.selectivity(predicates))
        except EstimationError:
            return None

    def estimate_ndv(self, query: CardQuery) -> float:
        if query.agg.kind is not AggKind.COUNT_DISTINCT:
            raise EstimationError("estimate_ndv requires COUNT DISTINCT")
        if self._rbx is None or self._needs_fallback(query):
            return self._traditional_ndv.estimate_ndv(query)
        return self._rbx.estimate_ndv(query)

    def group_ndv(self, query: CardQuery) -> float:
        if self._rbx is None:
            raise EstimationError("RBX model not loaded")
        return self._rbx.group_ndv(query)

    def estimation_overhead(self, query: CardQuery) -> float:
        if self._factorjoin is not None and not self._needs_fallback(query):
            return self._factorjoin.estimation_overhead(query)
        return self._traditional_count.estimation_overhead(query)

    # ------------------------------------------------------------------
    def as_suite(self) -> EstimatorSuite:
        """Expose ByteCard as an engine estimator suite."""
        return EstimatorSuite("bytecard", count_estimator=self, ndv_estimator=self)

    def strategies(self) -> dict:
        """The named :class:`EstimationStrategy` instances this deployment
        can route between.

        * ``learned`` -- this facade (BN/FactorJoin/RBX with the monitor's
          fallback semantics);
        * ``traditional`` -- the Selinger/histogram estimator alone;
        * ``upper_bound`` -- the UES-style never-underestimate bound built
          from this catalog's zone-map statistics.

        Built lazily and cached: strategies are stateless views over the
        live estimators, so :meth:`refresh` model swaps flow through.
        """
        if self._strategies is None:
            from repro.estimators.strategy import (
                LearnedStrategy,
                TraditionalStrategy,
                UpperBoundStrategy,
            )

            self._strategies = {
                "learned": LearnedStrategy(self),
                "traditional": TraditionalStrategy(self._traditional_count),
                "upper_bound": UpperBoundStrategy(self.catalog),
            }
        return dict(self._strategies)

    def strategy_router(
        self,
        rules=(),
        default_chain=("learned", "traditional"),
        risk_tag=None,
        derate_mass=None,
    ):
        """A :class:`~repro.estimators.strategy.StrategyRouter` over
        :meth:`strategies`, wired into this instance's observability
        registry and (when :meth:`enable_feedback` has run) its runtime
        feedback log -- so observed per-strategy error mass can derate a
        misbehaving route.
        """
        from repro.estimators.strategy import StrategyRouter

        return StrategyRouter(
            self.strategies(),
            rules=rules,
            default_chain=default_chain,
            registry=self.obs,
            feedback=self.feedback_log,
            derate_mass=derate_mass,
            default_risk_tag=risk_tag,
        )

    def fleet(
        self,
        n_workers: int = 2,
        store_dir=None,
        serving_config=None,
        fleet_config=None,
    ):
        """A multi-process serving fleet warm-started from this instance.

        Persists the current registry contents into a crash-safe
        :class:`~repro.forge.store.ArtifactStore` at ``store_dir`` (a
        temporary directory when omitted), then spawns ``n_workers``
        estimator processes that each warm-start from it with **zero
        training** -- each running the same
        :class:`~repro.serving.core.EstimationCore` pipeline as
        :meth:`serve`, behind a :class:`~repro.fleet.FleetRouter` that
        shards requests by table scope, hedges around stalled workers, and
        restarts dead ones.  The workers mirror this instance's current
        monitor verdicts (``fallback_tables``), so routed estimates match
        in-process serving bit for bit.

        ``fleet_config`` overrides ``n_workers`` when provided.  Close the
        router (it is a context manager) to reap the worker processes.
        """
        import tempfile

        from repro.fleet import FleetConfig, FleetRouter
        from repro.forge.store import ArtifactStore

        if store_dir is None:
            store_dir = tempfile.mkdtemp(prefix="bytecard-fleet-")
        store = ArtifactStore(store_dir, metrics=self.obs)
        store.persist_registry(self.registry)
        if fleet_config is None:
            fleet_config = FleetConfig(n_workers=n_workers)
        return FleetRouter(
            bundle=self.bundle,
            store_dir=store_dir,
            fallback_count=self._traditional_count,
            fallback_ndv=self._traditional_ndv,
            bytecard_config=self.config,
            serving_config=serving_config,
            fleet_config=fleet_config,
            fallback_tables=tuple(sorted(self.fallback_tables)),
            registry=self.obs,
        )

    def serve(self, config=None, feedback=None):
        """Wrap this ByteCard in a concurrent :class:`EstimationService`.

        The service keeps the traditional estimators as its deadline/error
        fallbacks and subscribes to this instance's invalidations, so a
        ``refresh()`` that swaps models or a fallback gate that flips
        invalidates the affected cached estimates.  ``config`` is a
        :class:`repro.serving.ServingConfig`.
        ``feedback`` defaults to this instance's :attr:`feedback_log` (see
        :meth:`enable_feedback`): served estimates -- cache hits included --
        are then noted as pending pairs for the executor to complete.
        """
        from repro.serving import EstimationService

        return EstimationService(
            estimator=self,
            fallback_count=self._traditional_count,
            fallback_ndv=self._traditional_ndv,
            config=config,
            invalidations=self,
            registry=self.obs,
            feedback=feedback if feedback is not None else self.feedback_log,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> MetricsRegistry:
        """The framework-wide observability registry.

        Every component wired through this ByteCard (Model Loader, Model
        Monitor, any service from :meth:`serve`, any
        :class:`~repro.engine.session.EngineSession` built on it) records
        here; export with :func:`repro.obs.export_text` /
        :func:`repro.obs.export_json`.
        """
        return self.obs

    def metrics_text(self) -> str:
        """Prometheus-style text export of :meth:`metrics`."""
        from repro.obs import export_text

        return export_text(self.obs)

    def metrics_json(self) -> dict:
        """Structured JSON export of :meth:`metrics`."""
        from repro.obs import export_json

        return export_json(self.obs)

    def status(self) -> ByteCardStatus:
        return ByteCardStatus(
            loaded_models=self.loader.loaded_keys(),
            fallback_tables=set(self.fallback_tables),
            calibrated_columns=sorted(self._rbx.calibrated) if self._rbx else [],
            monitor_reports=list(self.monitor_reports),
        )


class _WithoutCalibration(NdvEstimator):
    """View of an RBX estimator with one column's calibration masked off."""

    name = "rbx-uncalibrated"

    def __init__(self, rbx: RBXNdvEstimator, table: str, column: str):
        self._rbx = rbx
        self._key = (table, column)

    def estimate_ndv(self, query: CardQuery) -> float:
        saved = self._rbx.calibrated.pop(self._key, None)
        try:
            return self._rbx.estimate_ndv(query)
        finally:
            if saved is not None:
                self._rbx.calibrated[self._key] = saved


def _sample_rng(seed: int, name: str):
    from repro.utils.rng import derive_rng

    return derive_rng(seed, "bytecard-sample", name)
