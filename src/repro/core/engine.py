"""The ``CardEstInferenceEngine`` abstraction (the paper's Figure 6 API).

Every learned model is integrated behind the same six-method interface:

* ``load_model``          -- deserialize a registry blob (each model kind
  encapsulates its own deserialization);
* ``validate``            -- run the Model Validator's health checks;
* ``init_context``        -- freeze the immutable inference structures
  (topologically-indexed CPDs for BNs, read-only weight matrices for RBX)
  so ``estimate`` is lock-free under concurrency;
* ``featurize_sql_query`` / ``featurize_ast`` -- turn a query into the
  model's input representation;
* ``estimate``            -- the actual inference call on the query path.
"""

from __future__ import annotations

import abc

from repro.errors import ModelError
from repro.core.serialization import deserialize_bn, deserialize_rbx
from repro.core.validator import ModelValidator, ValidationReport
from repro.estimators.bn.model import TreeBayesNet
from repro.estimators.frequency import frequency_profile
from repro.estimators.rbx.network import MLP
from repro.estimators.rbx.profile import (
    RBX_FEATURE_DIM,
    clamp_estimate,
    rbx_features,
    target_to_ndv,
)
from repro.sql.ast import SelectStatement
from repro.sql.binder import Binder, bind_sql
from repro.sql.query import CardQuery
from repro.storage.catalog import Catalog
from repro.workloads.predicates import table_mask


class CardEstInferenceEngine(abc.ABC):
    """The high-level integration surface for one loaded model."""

    def __init__(self, catalog: Catalog, validator: ModelValidator):
        self.catalog = catalog
        self.validator = validator
        self._binder = Binder(catalog)
        self._context_ready = False

    # -- model lifecycle -------------------------------------------------
    @abc.abstractmethod
    def load_model(self, blob: bytes) -> bool:
        """Deserialize a blob into this engine.  Returns False on failure."""

    @abc.abstractmethod
    def validate(self) -> ValidationReport:
        """Run the health detector against the loaded model."""

    @abc.abstractmethod
    def init_context(self) -> None:
        """Build the immutable inference context."""

    # -- featurization ------------------------------------------------------
    def featurize_sql_query(self, sql: str) -> CardQuery:
        """Parse and bind a SQL string into the estimation representation.

        Bound :class:`CardQuery` objects are this engine family's "feature
        vector": every model estimates from them.  Binding goes through
        :func:`repro.sql.bind_sql`, so a repeated text is bound once per
        table state of the catalog.
        """
        return bind_sql(sql, self.catalog)

    def featurize_ast(self, statement: SelectStatement) -> CardQuery:
        """Bind an analyzer AST directly (richer, no re-parsing)."""
        return self._binder.bind(statement)

    # -- inference -----------------------------------------------------------
    @abc.abstractmethod
    def estimate(self, query: CardQuery) -> float:
        """Perform the estimation.  Requires ``init_context`` first."""

    def _require_context(self) -> None:
        if not self._context_ready:
            raise ModelError(
                "estimate() called before init_context(); the inference "
                "context must be frozen before serving query threads"
            )


class BNInferenceEngine(CardEstInferenceEngine):
    """Inference engine for one table's tree-BN COUNT model."""

    def __init__(self, catalog: Catalog, validator: ModelValidator):
        super().__init__(catalog, validator)
        self.model: TreeBayesNet | None = None

    def load_model(self, blob: bytes) -> bool:
        try:
            self.model = deserialize_bn(blob)
        except ModelError:
            self.model = None
            return False
        self._context_ready = False
        return True

    def validate(self) -> ValidationReport:
        if self.model is None:
            return ValidationReport.failure("no model loaded")
        return self.validator.check_bn_health(self.model)

    def init_context(self) -> None:
        if self.model is None:
            raise ModelError("cannot init_context without a loaded model")
        self.model.init_context()
        self._context_ready = True

    def estimate(self, query: CardQuery) -> float:
        self._require_context()
        assert self.model is not None
        if not query.is_single_table() or query.tables[0] != self.model.table_name:
            raise ModelError(
                f"BN engine for {self.model.table_name!r} cannot estimate {query}"
            )
        return self.model.estimate_rows(list(query.predicates))


class RBXInferenceEngine(CardEstInferenceEngine):
    """Inference engine for the RBX NDV model.

    Holds the network weights plus the per-table samples the featurization
    filters; ``init_context`` freezes the weights (read-only arrays).
    """

    def __init__(
        self,
        catalog: Catalog,
        validator: ModelValidator,
        samples: dict[str, object],
    ):
        super().__init__(catalog, validator)
        self.network: MLP | None = None
        self._samples = samples

    def load_model(self, blob: bytes) -> bool:
        try:
            self.network, _meta = deserialize_rbx(blob)
        except ModelError:
            self.network = None
            return False
        self._context_ready = False
        return True

    def validate(self) -> ValidationReport:
        if self.network is None:
            return ValidationReport.failure("no model loaded")
        return self.validator.check_rbx_health(self.network, RBX_FEATURE_DIM)

    def init_context(self) -> None:
        if self.network is None:
            raise ModelError("cannot init_context without a loaded model")
        for array in (*self.network.weights, *self.network.biases):
            array.setflags(write=False)
        self._context_ready = True

    def estimate(self, query: CardQuery) -> float:
        self._require_context()
        assert self.network is not None
        table_name = query.agg.table
        column = query.agg.column
        if table_name is None or column is None:
            raise ModelError("RBX engine requires a COUNT DISTINCT query")
        sample = self._samples.get(table_name)
        if sample is None:
            raise ModelError(f"no sample loaded for table {table_name!r}")
        mask = table_mask(sample, query)  # type: ignore[arg-type]
        values = sample.column(column).values[mask]  # type: ignore[attr-defined]
        matched = float(mask.sum()) / max(1, len(sample))  # type: ignore[arg-type]
        population = max(1, int(len(self.catalog.table(table_name)) * matched))
        profile = frequency_profile(values, population_size=population)
        if profile.sample_size == 0:
            return 1.0
        raw = target_to_ndv(float(self.network.forward(rbx_features(profile))[0]))
        return clamp_estimate(raw, profile)
