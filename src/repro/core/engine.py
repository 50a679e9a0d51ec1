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
* ``estimate``            -- the actual inference call: the served
  estimator (``BNCountEstimator`` / ``RBXNdvEstimator``) over the one
  loaded model, so an engine answers what the serving path answers.
"""

from __future__ import annotations

import abc
from typing import Callable

from repro.errors import EstimationError, ModelError
from repro.core.serialization import deserialize_bn, deserialize_rbx
from repro.core.validator import ModelValidator, ValidationReport
from repro.estimators.bn.estimator import BNCountEstimator
from repro.estimators.bn.model import TreeBayesNet
from repro.estimators.rbx.estimator import RBXNdvEstimator
from repro.estimators.rbx.network import MLP
from repro.estimators.rbx.profile import RBX_FEATURE_DIM
from repro.sql.ast import SelectStatement
from repro.sql.binder import Binder, bind_sql
from repro.sql.query import CardQuery
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class CardEstInferenceEngine(abc.ABC):
    """The high-level integration surface for one loaded model.

    ``init_context`` builds the served estimator over the loaded model, so
    ``estimate`` runs the same code as the serving path.
    """

    def __init__(self, catalog: Catalog, validator: ModelValidator):
        self.catalog = catalog
        self.validator = validator
        self._binder = Binder(catalog)
        #: the served estimator's entry point, set by ``init_context``
        self._served: Callable[[CardQuery], float] | None = None

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
    def estimate(self, query: CardQuery) -> float:
        """Perform the estimation.  Requires ``init_context`` first.

        An estimate the model cannot give raises :class:`ModelError`.
        """
        if self._served is None:
            raise ModelError(
                "estimate() called before init_context(); the inference "
                "context must be frozen before serving query threads"
            )
        try:
            return self._served(query)
        except EstimationError as exc:
            raise ModelError(str(exc)) from exc


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
        self._served = None
        return True

    def validate(self) -> ValidationReport:
        if self.model is None:
            return ValidationReport.failure("no model loaded")
        return self.validator.check_bn_health(self.model)

    def init_context(self) -> None:
        if self.model is None:
            raise ModelError("cannot init_context without a loaded model")
        self.model.init_context()
        self._served = BNCountEstimator(
            {self.model.table_name: self.model}, catalog=self.catalog
        ).estimate_count


class RBXInferenceEngine(CardEstInferenceEngine):
    """Inference engine for the RBX NDV model.

    Holds the network weights plus the per-table samples the featurization
    filters; ``init_context`` freezes the weights (read-only arrays).
    """

    def __init__(
        self,
        catalog: Catalog,
        validator: ModelValidator,
        samples: dict[str, Table],
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
        self._served = None
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
        self._served = RBXNdvEstimator(
            self.catalog, self.network, samples=self._samples
        ).estimate_ndv
