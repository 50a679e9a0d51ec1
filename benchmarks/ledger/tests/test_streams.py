"""Streams are a pure function of the seed; unparseable names are dropped."""

import dataclasses

import pytest

import workloads
from repro.serving.fingerprint import query_fingerprint
from repro.sql import bind_sql


@pytest.fixture(scope="module")
def fleet_bundle():
    return workloads.build_dataset(workloads.WORKLOADS["fleet_mixed"])


def stream(bundle, seed, length=150):
    workload = dataclasses.replace(
        workloads.WORKLOADS["fleet_mixed"], stream_length=length
    )
    return workloads.build_stream(workload, seed, bundle)


def test_same_seed_same_sql_different_seed_different_sql(fleet_bundle):
    first, again, other = (stream(fleet_bundle, s) for s in (3, 3, 4))
    assert first.sql_hash == again.sql_hash
    assert first.sqls == again.sqls
    assert first.sql_hash != other.sql_hash
    assert len(first) == len(other) == 150


def test_every_seed_draws_from_the_same_template_pool(fleet_bundle):
    first, other = stream(fleet_bundle, 3), stream(fleet_bundle, 4)
    assert first.templates == other.templates
    assert set(first.strata) <= set(other.strata) | set(first.strata)
    repeated = set(first.sqls) & set(other.sqls)
    assert repeated, "verbatim template replays are shared between seeds"


def test_every_sql_string_binds_back_to_its_query(fleet_bundle):
    built = stream(fleet_bundle, 5, length=60)
    for sql, query in zip(built.sqls, built.queries):
        bound = bind_sql(sql, fleet_bundle.catalog)
        assert query_fingerprint(bound) == query_fingerprint(query)


def test_templates_naming_tags_count_are_dropped_by_name():
    workload = workloads.WORKLOADS["adhoc_join"]
    bundle = workloads.build_dataset(workload)
    kept, dropped, rejected = workloads.usable_templates(bundle, workload.spec)
    assert dropped > 0
    assert len(kept) + dropped + rejected == workload.spec.num_queries
    for template in kept:
        columns = {(p.table, p.column) for p in template.all_predicates()}
        assert ("tags", "Count") not in columns


def test_workload_names_are_final():
    assert list(workloads.WORKLOADS) == [
        "dash_repeat", "adhoc_join", "fleet_mixed", "churn_refresh",
    ]
