"""Admission-control unit tests: Eq. 3 quotas, budgets, typed rejections."""

import math

import pytest

from repro.core.autotune import min_checkpoint_interval, slots_for_interval
from repro.errors import AdmissionRejected, ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import (
    DISPATCH,
    QUEUE,
    REASON_BACKLOG_FULL,
    TenantAccount,
    TenantSpec,
    derive_quota,
)


def account(**overrides) -> TenantAccount:
    defaults = dict(name="t", capacity_bytes=1024, slots=2, max_queue=2)
    defaults.update(overrides)
    spec = TenantSpec(**defaults)
    return TenantAccount(spec, derive_quota(spec), MetricsRegistry())


class TestTenantSpec:
    def test_interval_args_are_all_or_none(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="t", capacity_bytes=1024, interval=5.0)

    def test_dram_budget_must_fit_one_checkpoint(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="t", capacity_bytes=1024, dram_bytes=512)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="", capacity_bytes=1024)


class TestDeriveQuota:
    def test_explicit_slots_win(self):
        spec = TenantSpec(name="t", capacity_bytes=1024, slots=5,
                          interval=10.0, tw_seconds=1.0, iteration_time=0.1)
        assert derive_quota(spec).slots == 5

    def test_eq3_inverse_matches_forward_model(self):
        """slots_for_interval must be the least N whose Eq. 3 interval
        fits under the requested one."""
        tw, q, t = 4.0, 1.05, 0.25
        for interval in (1.0, 5.0, 17.0, 120.0):
            n = slots_for_interval(tw, interval, q, t)
            assert min_checkpoint_interval(tw, n, q, t) <= interval + 1e-9
            if n > 1:
                assert min_checkpoint_interval(tw, n - 1, q, t) > interval

    def test_interval_derived_quota(self):
        tw, q, t = 4.0, 1.05, 0.25
        spec = TenantSpec(name="t", capacity_bytes=1024, interval=5.0,
                          tw_seconds=tw, max_slowdown=q, iteration_time=t)
        assert derive_quota(spec).slots == slots_for_interval(tw, 5.0, q, t)

    def test_default_slots_used_when_nothing_given(self):
        spec = TenantSpec(name="t", capacity_bytes=1024)
        assert derive_quota(spec, default_slots=3).slots == 3

    def test_default_dram_is_double_buffered_up_to_slots(self):
        one = TenantSpec(name="t", capacity_bytes=1024, slots=1)
        many = TenantSpec(name="t", capacity_bytes=1024, slots=4)
        assert derive_quota(one).dram_bytes == 1024
        assert derive_quota(many).dram_bytes == 2048


class TestTenantAccount:
    def test_dispatch_then_queue_then_reject(self):
        acct = account(slots=1, max_queue=1)
        assert acct.admit(100) == DISPATCH
        acct.inflight += 1
        acct.inflight_bytes += 100
        assert acct.admit(100) == QUEUE
        acct.backlog.append(object())
        with pytest.raises(AdmissionRejected) as excinfo:
            acct.admit(100)
        assert excinfo.value.reason == REASON_BACKLOG_FULL
        assert excinfo.value.tenant == "t"

    def test_admit_does_not_mutate(self):
        acct = account()
        acct.admit(100)
        assert acct.inflight == 0
        assert acct.inflight_bytes == 0
        assert not acct.backlog

    def test_dram_budget_forces_queueing(self):
        # Two slots but DRAM for only one staged checkpoint.
        acct = account(slots=2, dram_bytes=1024)
        acct.inflight += 1
        acct.inflight_bytes += 1024
        assert acct.admit(1024) == QUEUE

    def test_stats_shape(self):
        stats = account().stats()
        for key in ("tenant", "quota_slots", "quota_dram_bytes", "inflight",
                    "backlog", "requests", "commits", "superseded",
                    "rejections", "failures", "coalesced", "latest"):
            assert key in stats
