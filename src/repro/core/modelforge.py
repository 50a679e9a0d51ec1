"""The ModelForge Service: isolated training and model management.

A standalone service in production -- training never touches the online
query path.  Responsibilities reproduced here:

* **routine training** of per-table COUNT models: Chow-Liu structure
  learning + EM parameter learning on sampled data, with join keys
  discretized on the Model Preprocessor's join buckets;
* **RBX lifecycle**: one universal offline training run, plus occasional
  calibration fine-tuning of problematic columns from the established
  checkpoint;
* **ingestion signals**: upstream sources (Hive/Kafka in the paper) notify
  the service of data changes; the next training cycle retrains exactly the
  dirty tables.

Every trained model is serialized and published to the registry with a
fresh timestamp; training times and sizes are recorded (they are the rows
of the paper's Tables 3 and 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.config import ByteCardConfig
from repro.core.preprocessor import ModelPreprocessor
from repro.core.registry import ModelRegistry
from repro.core.serialization import serialize_bn, serialize_rbx
from repro.datasets.base import DatasetBundle
from repro.estimators.bn.model import fit_tree_bn
from repro.estimators.factorjoin.buckets import JoinBucketizer
from repro.estimators.frequency import FrequencyProfile
from repro.estimators.rbx.network import MLP
from repro.estimators.rbx.training import fine_tune_rbx, train_rbx
from repro.utils.rng import derive_rng
from repro.utils.timer import Stopwatch


@lru_cache(maxsize=8)
def _universal_rbx_blob(num_examples: int, epochs: int, seed: int) -> bytes:
    """The serialized universal RBX checkpoint, trained once per process.

    Training is seeded and reads nothing but the key (the other
    ``train_rbx`` arguments keep their defaults), so a repeat call could
    only reproduce the same bytes.
    Bytes, not an ``MLP``, are shared: every reader deserializes its own
    arrays.  A miss calls the module-global ``train_rbx``, so a guard
    that patches it sees every real training run.
    """
    model = train_rbx(num_examples=num_examples, epochs=epochs, seed=seed)
    return serialize_rbx(model, meta={"scope": "universal"})


@dataclass(frozen=True)
class TrainedModelInfo:
    """Size/time record of one trained model (a Table 6 row)."""

    kind: str
    name: str
    seconds: float
    nbytes: int
    timestamp: int


@dataclass
class IngestionSignal:
    """A Data Ingestor notification (Hive/Kafka metadata in the paper)."""

    table: str
    source: str = "kafka"
    details: dict = field(default_factory=dict)


class ModelForgeService:
    """Training orchestration around one registry."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: ByteCardConfig | None = None,
    ):
        self.registry = registry
        self.config = config or ByteCardConfig()
        self._dirty_tables: set[str] = set()
        self.history: list[TrainedModelInfo] = []
        # Preprocessor products (join bucketizer, training columns) are
        # catalog-wide and expensive; cache them across training cycles and
        # invalidate only when a join-key table's data changes -- bucket
        # edges are built from join-key domains, so dirt on a pure filter
        # table cannot move them.
        self._prepared: tuple[JoinBucketizer, dict[str, list[str]]] | None = None
        self._prepared_key: tuple[int, int] | None = None
        self._join_tables: set[str] = set()
        # The join-bucket grid is a *contract shared across BN models*: a
        # model discretized on one set of edges cannot be combined with a
        # model discretized on another.  The generation counter stamps
        # which grid each table's published BN was trained on, so partial
        # retrains can pull grid-stale join tables into the same cycle.
        self._bucket_generation = 0
        self._trained_generation: dict[str, int] = {}
        self._training_bucketizer: JoinBucketizer | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_signal(self, signal: IngestionSignal) -> None:
        """Record that a table's data changed upstream."""
        self._dirty_tables.add(signal.table)
        if self._prepared is not None and signal.table in self._join_tables:
            self.invalidate_preprocessor_cache()

    def dirty_tables(self) -> set[str]:
        return set(self._dirty_tables)

    def invalidate_preprocessor_cache(self) -> None:
        """Force the next training call to rebuild the join buckets."""
        self._prepared = None
        self._prepared_key = None
        self._bucket_generation += 1

    def _prepare(
        self, bundle: DatasetBundle
    ) -> tuple[JoinBucketizer, dict[str, list[str]]]:
        """The cached (bucketizer, training columns) for ``bundle``."""
        cache_key = (id(bundle.catalog), id(bundle.filter_columns))
        if self._prepared is not None and self._prepared_key == cache_key:
            return self._prepared
        preprocessor = ModelPreprocessor(
            bundle.catalog, join_bucket_count=self.config.join_bucket_count
        )
        bucketizer = preprocessor.build_join_buckets()
        training_columns = preprocessor.training_columns(bundle.filter_columns)
        self._join_tables = {
            table
            for left_t, _lc, right_t, _rc in preprocessor.collect_join_patterns()
            for table in (left_t, right_t)
        }
        self._prepared = (bucketizer, training_columns)
        self._prepared_key = cache_key
        return self._prepared

    # ------------------------------------------------------------------
    # COUNT models
    # ------------------------------------------------------------------
    def train_count_models(
        self,
        bundle: DatasetBundle,
        tables: list[str] | None = None,
    ) -> list[TrainedModelInfo]:
        """Train and publish BN models for the given (or all) tables.

        A targeted retrain is widened to its **grid-consistency closure**:
        when the join-bucket grid was rebuilt since a join table's BN was
        last trained (ingestion dirt on a join table invalidates the
        preprocessor cache), that table is pulled into this cycle too --
        otherwise the freshly trained model and the stale ones would be
        discretized on different bucket edges and could not be combined
        at join-estimation time.
        """
        bucketizer, training_columns = self._prepare(bundle)
        self._training_bucketizer = bucketizer
        if tables is None:
            targets = sorted(training_columns)
        else:
            closure = set(tables) | {
                name
                for name in self._join_tables
                if name in training_columns
                and name in self._trained_generation
                and self._trained_generation[name] != self._bucket_generation
            }
            targets = sorted(closure)
        infos: list[TrainedModelInfo] = []
        for table_name in targets:
            columns = training_columns.get(table_name)
            if not columns:
                continue
            infos.append(
                self._train_one_bn(bundle, bucketizer, table_name, columns)
            )
            self._trained_generation[table_name] = self._bucket_generation
        return infos

    def training_bucketizer(self) -> JoinBucketizer | None:
        """The grid the most recent training cycle discretized on.

        Model assembly must use exactly this bucketizer: rebuilding one
        from the live catalog would race concurrent ingestion and drift
        away from the edges the published BNs were trained with.
        """
        return self._training_bucketizer

    def _train_one_bn(
        self,
        bundle: DatasetBundle,
        bucketizer: JoinBucketizer,
        table_name: str,
        columns: list[str],
    ) -> TrainedModelInfo:
        table = bundle.catalog.table(table_name)
        join_keys = [c for c in columns if bucketizer.has_class(table_name, c)]
        bucket_edges = {
            key: bucketizer.edges_for(table_name, key) for key in join_keys
        }
        rng = derive_rng(bundle.seed, "modelforge", table_name)
        with Stopwatch() as sw:
            model = fit_tree_bn(
                table,
                columns,
                max_bins=self.config.max_bins,
                bucket_edges=bucket_edges,
                sample_rows=self.config.training_sample_rows,
                rng=rng,
            )
            blob = serialize_bn(model)
        record = self.registry.publish("bn", table_name, blob)
        info = TrainedModelInfo(
            kind="bn",
            name=table_name,
            seconds=sw.elapsed,
            nbytes=len(blob),
            timestamp=record.timestamp,
        )
        self.history.append(info)
        self._dirty_tables.discard(table_name)
        return info

    def run_training_cycle(self, bundle: DatasetBundle) -> list[TrainedModelInfo]:
        """Retrain exactly the tables flagged dirty by ingestion signals."""
        if not self._dirty_tables:
            return []
        return self.train_count_models(bundle, tables=sorted(self._dirty_tables))

    # ------------------------------------------------------------------
    # RBX
    # ------------------------------------------------------------------
    def train_rbx_universal(self, seed: int = 9) -> TrainedModelInfo:
        """The single offline training run of the universal RBX model.

        The run happens once per process per (corpus size, epochs, seed);
        later calls republish the memoised checkpoint.
        """
        with Stopwatch() as sw:
            blob = _universal_rbx_blob(
                self.config.rbx_corpus_size, self.config.rbx_epochs, seed
            )
        record = self.registry.publish("rbx", "universal", blob)
        info = TrainedModelInfo(
            kind="rbx",
            name="universal",
            seconds=sw.elapsed,
            nbytes=len(blob),
            timestamp=record.timestamp,
        )
        self.history.append(info)
        return info

    def tune_column(
        self,
        base_model: MLP,
        table: str,
        column: str,
        column_samples: list[tuple[FrequencyProfile, int]],
        seed: int = 10,
    ) -> bytes:
        """One column's fine-tuned weights, serialized and not published."""
        tuned = fine_tune_rbx(base_model, column_samples, seed=seed)
        return serialize_rbx(
            tuned, meta={"scope": "column", "table": table, "column": column}
        )

    def fine_tune_column(
        self,
        base_model: MLP,
        table: str,
        column: str,
        column_samples: list[tuple[FrequencyProfile, int]],
        seed: int = 10,
    ) -> TrainedModelInfo:
        """Calibration fine-tuning for one problematic column, published."""
        with Stopwatch() as sw:
            blob = self.tune_column(base_model, table, column, column_samples, seed)
        record = self.registry.publish("rbx", f"{table}.{column}", blob)
        info = TrainedModelInfo(
            kind="rbx",
            name=f"{table}.{column}",
            seconds=sw.elapsed,
            nbytes=len(blob),
            timestamp=record.timestamp,
        )
        self.history.append(info)
        return info
