"""The ByteCard facade: the full framework wired together.

:meth:`ByteCard.build` runs the production bootstrap end to end --
preprocess, train in ModelForge, publish to the registry, load through the
Model Loader (size + health validation), assemble the serving estimators,
and run the Model Monitor to establish fallback decisions.  The resulting
object is a :class:`CountEstimator` *and* :class:`NdvEstimator` with the
paper's fallback semantics: queries touching a gated table are served by
the traditional estimator instead.

Everything an answer is computed from -- the per-table BNs, the training
bucketizer, the RBX network with its calibrated weights and the gate set
-- lives in one immutable :class:`ModelSnapshot`.  :meth:`ByteCard.refresh`,
a gate flip and an NDV calibration each build a new snapshot and swap one
reference; a served request reads the snapshot once and keys its cached
answer by the snapshot's tokens, so nothing is ever invalidated.  The
facade also owns the model-keyed evidence and plan caches every snapshot's
FactorJoin estimator shares.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field, replace
from typing import Mapping

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
from repro.estimators.bn.model import new_evidence_cache
from repro.estimators.factorjoin.estimator import FactorJoinEstimator
from repro.estimators.factorjoin.plans import new_plan_cache
from repro.estimators.rbx.estimator import RBXNdvEstimator
from repro.estimators.traditional.hyperloglog import SketchNdvEstimator
from repro.estimators.traditional.selinger import SelingerEstimator
from repro.obs.metrics import MetricsRegistry
from repro.sql.query import AggKind, CardQuery
from repro.storage.catalog import Catalog

#: never-reused snapshot tokens (a table no model or gate ever touched has none)
_TOKENS = itertools.count(1)


@dataclass
class ByteCardStatus:
    """Introspection snapshot for examples and tests."""

    loaded_models: list[tuple[str, str]] = field(default_factory=list)
    fallback_tables: set[str] = field(default_factory=set)
    calibrated_columns: list[tuple[str, str]] = field(default_factory=list)
    monitor_reports: list[MonitorReport] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class ModelSnapshot(CountEstimator, NdvEstimator):
    """One immutable inference context: everything an answer depends on.

    Queries touching a gated (or unmodeled) table are answered by the
    traditional estimators.  ``tokens`` holds one never-reused token per
    table, renewed whenever that table's BN or gate changes -- every table's
    when the bucketizer does -- and ``rbx_token`` names the RBX network with
    its calibrated weights, so :meth:`cache_key` changes whenever an answer
    may.  COUNT and NDV answers (FactorJoin's join sizes, the RBX and the
    sketch) also scale by the tables' live row counts, so their keys carry
    the ``catalog``'s :meth:`~repro.storage.catalog.Catalog.table_state` of
    each table; selectivities do not.
    """

    name = "bytecard"

    count_fallback: CountEstimator
    ndv_fallback: NdvEstimator
    factorjoin: FactorJoinEstimator | None = None
    rbx: RBXNdvEstimator | None = None
    fallback_tables: frozenset[str] = frozenset()
    tokens: Mapping[str, int] = field(default_factory=dict)
    rbx_token: int = 0
    #: the loader generation the models were read at
    generation: int = 0
    catalog: Catalog | None = None

    def cache_key(self, task: str, query: CardQuery) -> tuple:
        # In table-name order, like the query fingerprint the key sits beside.
        tables = sorted(query.tables)
        key = tuple(map(self.tokens.get, tables))
        if task == "selectivity":
            return key
        states = () if self.catalog is None else tuple(
            map(self.catalog.table_state, tables)
        )
        if task == "count":
            return (*key, *states)
        return (self.rbx_token, *key, *states)

    def _gated(self, query: CardQuery) -> bool:
        return any(t in self.fallback_tables for t in query.tables)

    def _learned(self, tables) -> bool:
        """FactorJoin answers: every table is modeled and none is gated."""
        factorjoin = self.factorjoin
        return factorjoin is not None and all(
            t in factorjoin.models and t not in self.fallback_tables for t in tables
        )

    def estimate_count(self, query: CardQuery) -> float:
        if not self._learned(query.tables):
            return self.count_fallback.estimate_count(query)
        return self.factorjoin.estimate_count(query)

    @property
    def last_pass_stats(self):
        """Pass accounting of this thread's last join estimate (or None)."""
        return None if self.factorjoin is None else self.factorjoin.last_pass_stats

    def estimate_count_batch(
        self, table: str, queries: list[CardQuery]
    ) -> list[float]:
        """A direct batched call into the ``(bins, B)`` sweep, one column per
        query: single-table batches must all be on ``table``, a batch with
        a join takes FactorJoin's shared-plan path, and a gated or unmodeled
        table sends the whole batch to the traditional estimator."""
        tables = {t for query in queries for t in query.tables}
        if not self._learned(tables):
            return [self.count_fallback.estimate_count(q) for q in queries]
        if any(not query.is_single_table() for query in queries):
            return self.factorjoin.estimate_join_batch(queries)
        return self.factorjoin.estimate_count_batch(table, queries)

    def selectivity(self, query: CardQuery) -> float:
        if self._gated(query) or not self._learned(query.tables[:1]):
            return self.count_fallback.selectivity(query)
        return self.factorjoin.selectivity(query)

    def estimate_ndv(self, query: CardQuery) -> float:
        if query.agg.kind is not AggKind.COUNT_DISTINCT:
            raise EstimationError("estimate_ndv requires COUNT DISTINCT")
        if self.rbx is None or self._gated(query):
            return self.ndv_fallback.estimate_ndv(query)
        return self.rbx.estimate_ndv(query)

    def group_ndv(self, query: CardQuery) -> float:
        if self.rbx is None:
            raise EstimationError("RBX model not loaded")
        return self.rbx.group_ndv(query)

    def estimation_overhead(self, query: CardQuery) -> float:
        if self.factorjoin is not None and not self._gated(query):
            return self.factorjoin.estimation_overhead(query)
        return self.count_fallback.estimation_overhead(query)


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
        #: what every answer is computed from, swapped whole by refresh(),
        #: set_fallback() and calibration (see snapshot())
        self._snapshot = ModelSnapshot(
            self._traditional_count, self._traditional_ndv, catalog=self.catalog
        )
        #: serializes snapshot writers; readers never take it
        self._swap_lock = threading.Lock()
        #: predicate -> bin-mask vectors and cross-query plan scopes, handed
        #: to every FactorJoin estimator refresh() builds; entries are keyed
        #: by the BN they came from, so nothing has to invalidate them
        self.evidence_cache = new_evidence_cache(self.obs)
        self.plan_cache = new_plan_cache(self.obs)
        #: runtime feedback ring (:meth:`enable_feedback`): observed
        #: (estimate, actual) pairs from the execution path, consumed by the
        #: monitor and ranked on by the forge's retrain priorities
        self.feedback_log = None
        self.monitor_reports: list[MonitorReport] = []
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

    def snapshot(self) -> ModelSnapshot:
        """The current immutable model snapshot (one reference read)."""
        return self._snapshot

    def refresh(self) -> None:
        """One Model Loader pass; when the loader's serving set changed,
        publish a new snapshot built on what it now holds.

        A BN that was reloaded or evicted renews its table's token; so does
        every table when the training bucketizer changed.  A rebuilt RBX
        renews the RBX token.  Untouched tables keep their tokens, so their
        cached answers keep hitting.
        """
        self.loader.refresh()
        with self._swap_lock:
            current = self._snapshot
            generation = self.loader.generation
            if generation == current.generation:
                return
            tokens = dict(current.tokens)
            factorjoin = self._assemble_factorjoin(current.factorjoin, tokens)
            rbx = self._assemble_rbx(current.rbx)
            self._snapshot = replace(
                current,
                factorjoin=factorjoin,
                rbx=rbx,
                tokens=tokens,
                rbx_token=current.rbx_token if rbx is current.rbx else next(_TOKENS),
                generation=generation,
            )

    def _assemble_factorjoin(
        self, current: FactorJoinEstimator | None, tokens: dict[str, int]
    ) -> FactorJoinEstimator | None:
        """FactorJoin over the loaded per-table BNs (``current`` when none
        changed), renewing in ``tokens`` the tables whose answers can move."""
        models = {}
        for kind, name in self.loader.loaded_keys():
            if kind == "bn":
                model = self.loader.get(kind, name).model
                if model is not None:
                    models[name] = model
        if not models:
            return current
        # Assemble on the grid the models were *trained* with; the live
        # catalog may have mutated since (streaming ingestion) and a
        # rebuilt grid would misalign with the published BNs.
        bucketizer = self.forge_service.training_bucketizer()
        if bucketizer is None:
            bucketizer = (
                current.bucketizer
                if current is not None
                else self.preprocessor.build_join_buckets()
            )
        if current is None or bucketizer is not current.bucketizer:
            changed = {*tokens, *self.catalog.table_names(), *models}
        else:
            changed = {
                table
                for table in models.keys() | current.models.keys()
                if models.get(table) is not current.models.get(table)
            }
        if not changed:
            return current
        tokens.update((table, next(_TOKENS)) for table in changed)
        return FactorJoinEstimator(
            self.catalog,
            models,
            bucketizer,
            metrics=self.obs,
            plan_cache=self.plan_cache,
            evidence_cache=self.evidence_cache,
        )

    def _assemble_rbx(self, current: RBXNdvEstimator | None) -> RBXNdvEstimator | None:
        """The loaded RBX network with its published calibrations --
        ``current`` when it already serves exactly those, or none is loaded."""
        universal = self.loader.get("rbx", "universal")
        if universal is None or universal.network is None:
            return current
        calibrated = {}
        for kind, name in self.loader.loaded_keys():
            if kind == "rbx" and "." in name:
                network = self.loader.get(kind, name).network
                if network is not None:
                    calibrated[tuple(name.split(".", 1))] = network
        if (
            current is not None
            and current.model is universal.network
            and current.calibrated.keys() == calibrated.keys()
            and all(current.calibrated[key] is net for key, net in calibrated.items())
        ):
            return current
        rbx = RBXNdvEstimator(
            self.catalog, universal.network, samples=self._rbx_samples
        )
        rbx.calibrated = calibrated
        return rbx

    # ------------------------------------------------------------------
    # Monitoring and calibration
    # ------------------------------------------------------------------
    def run_monitor(self, fine_tune: bool = True) -> list[MonitorReport]:
        """Gate COUNT models; detect and calibrate problematic NDV columns."""
        reports: list[MonitorReport] = []
        snapshot = self._snapshot
        if snapshot.factorjoin is not None:
            for table in sorted(snapshot.factorjoin.models):
                report = self.reassess_table(table)
                assert report is not None  # the table has a model
                reports.append(report)
        if snapshot.rbx is not None:
            for table, column in self.bundle.high_ndv_columns:
                report = self.monitor.assess_ndv_column(
                    table, column, self._snapshot.rbx
                )
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
        factorjoin = self._snapshot.factorjoin
        if factorjoin is None or table not in factorjoin.models:
            return None
        report = self.monitor.assess_count_model(table, factorjoin)
        # Failed *or* untested (passed is None): an unassessed model must
        # not serve as if it had been vetted.
        self.set_fallback(table, not report.passed)
        return report

    @property
    def fallback_tables(self) -> frozenset[str]:
        """Tables gated onto the traditional estimator (see :meth:`set_fallback`)."""
        return self._snapshot.fallback_tables

    def set_fallback(self, table: str, fallback: bool) -> None:
        """Gate ``table`` onto (or lift it off) the traditional estimator.

        The one writer of :attr:`fallback_tables`: a flip publishes a
        snapshot with a new token for the table, a no-op keeps the snapshot.
        """
        with self._swap_lock:
            current = self._snapshot
            gated = current.fallback_tables
            gated = gated | {table} if fallback else gated - {table}
            if gated != current.fallback_tables:
                self._snapshot = replace(
                    current,
                    fallback_tables=gated,
                    tokens={**current.tokens, table: next(_TOKENS)},
                )

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
        """The calibration protocol: fine-tune, validate, then publish.

        The paper "only integrates a RBX model ... once the Monitor has
        validated the new parameters": the tuned weights are assessed on a
        candidate estimator, and only weights that are kept reach the
        registry and a new snapshot.
        """
        rbx = self._snapshot.rbx
        assert rbx is not None
        samples = self.monitor.collect_column_samples(table, column)
        blob = self.forge_service.tune_column(rbx.model, table, column, samples)
        tuned, _meta = deserialize_rbx(blob)
        recheck = self.monitor.assess_ndv_column(
            table, column, rbx.with_calibrated(table, column, tuned)
        )
        if (
            recheck.passed is False
            and recheck.p90 is not None
            and recheck.p90 >= self.config.ndv_finetune_trigger
        ):
            # Tuning did not help enough; keep it only if it improved.
            baseline = self.monitor.assess_ndv_column(
                table, column, rbx.with_calibrated(table, column, None)
            )
            if baseline.p90 is not None and baseline.p90 <= recheck.p90:
                return
        self.registry.publish("rbx", f"{table}.{column}", blob)
        with self._swap_lock:
            current = self._snapshot
            self._snapshot = replace(
                current,
                rbx=current.rbx.with_calibrated(table, column, tuned),
                rbx_token=next(_TOKENS),
            )

    # ------------------------------------------------------------------
    # Serving (CountEstimator / NdvEstimator): the current snapshot answers
    # ------------------------------------------------------------------
    def cache_key(self, task: str, query: CardQuery) -> tuple:
        return self._snapshot.cache_key(task, query)

    def estimate_count(self, query: CardQuery) -> float:
        return self._snapshot.estimate_count(query)

    @property
    def last_pass_stats(self):
        return self._snapshot.last_pass_stats

    def estimate_count_batch(
        self, table: str, queries: list[CardQuery]
    ) -> list[float]:
        return self._snapshot.estimate_count_batch(table, queries)

    def selectivity(self, query: CardQuery) -> float:
        return self._snapshot.selectivity(query)

    def estimate_ndv(self, query: CardQuery) -> float:
        return self._snapshot.estimate_ndv(query)

    def group_ndv(self, query: CardQuery) -> float:
        return self._snapshot.group_ndv(query)

    def estimation_overhead(self, query: CardQuery) -> float:
        return self._snapshot.estimation_overhead(query)

    # ------------------------------------------------------------------
    def as_suite(self) -> EstimatorSuite:
        """Expose ByteCard as an engine estimator suite."""
        return EstimatorSuite("bytecard", count_estimator=self, ndv_estimator=self)

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
        training** -- each serving through its own :meth:`serve`, behind a :class:`~repro.fleet.FleetRouter` that
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
        fallbacks and keys each cached estimate by the :meth:`snapshot`
        that computed it, so after a ``refresh()`` that swaps models or a
        fallback gate that flips the affected estimates miss and are
        recomputed.  ``config`` is a
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
        rbx = self._snapshot.rbx
        return ByteCardStatus(
            loaded_models=self.loader.loaded_keys(),
            fallback_tables=set(self.fallback_tables),
            calibrated_columns=sorted(rbx.calibrated) if rbx else [],
            monitor_reports=list(self.monitor_reports),
        )


def _sample_rng(seed: int, name: str):
    from repro.utils.rng import derive_rng

    return derive_rng(seed, "bytecard-sample", name)
