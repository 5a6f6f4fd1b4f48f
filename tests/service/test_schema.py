"""Wire schema: the one job type survives JSON bit-for-bit."""

import json

import pytest

from repro.campaign.jobs import (
    JOB_WIRE_VERSION,
    CampaignJob,
    WireError,
)
from repro.service.schema import (
    MAX_JOBS,
    SCHEMA_VERSION,
    SchemaError,
    submission_from_wire,
    submission_to_wire,
)


def job(**overrides):
    base = dict(n=8, n_peers=2, n_clusters=1, scheme="synchronous",
                tol=1e-3)
    base.update(overrides)
    return CampaignJob(**base)


def v1_job_wire():
    """A job as a version-1 client encoded it: with the sweep executor."""
    return dict(job().to_wire(), version=1, executor="inline")


# Values that tend to die in float plumbing: non-representable
# decimals, subnormals, huge/tiny magnitudes, one-ulp neighbours.
NASTY_FLOATS = [0.1, 0.1 + 0.2, 1e-300, 5e-324, 1.7976931348623157e308,
                2 / 3, 1.0000000000000002]


class TestJobWireRoundTrip:
    def test_round_trip_is_identity(self):
        original = job()
        assert CampaignJob.from_wire(original.to_wire()) == original

    def test_round_trip_through_actual_json(self):
        original = job(dtype="float32",
                       delta=0.123456789123456789, n_paper=96, seed=3,
                       extra=(("weights", (1.0, 2.0)),))
        decoded = CampaignJob.from_wire(
            json.loads(json.dumps(original.to_wire())))
        assert decoded == original

    @pytest.mark.parametrize("tol", NASTY_FLOATS)
    def test_signature_and_cache_key_survive_the_wire(self, tol):
        """The whole point of exact-float encoding: a job's cache key
        is the same on both sides of the wire."""
        from repro.campaign.cache import cache_key

        original = job(tol=tol, delta=tol)
        decoded = CampaignJob.from_wire(
            json.loads(json.dumps(original.to_wire())))
        assert decoded.signature() == original.signature()
        assert cache_key(decoded.signature()) \
            == cache_key(original.signature())
        assert decoded.key() == original.key()

    def test_extra_params_round_trip_hashable(self):
        original = job(extra=(("weights", (0.1, 0.2, 0.7)),
                              ("checkpoint_every", 2)))
        decoded = CampaignJob.from_wire(
            json.loads(json.dumps(original.to_wire())))
        assert decoded == original
        hash(decoded)  # lists must have come back as tuples

    def test_plain_numbers_accepted_for_floats(self):
        wire = job(tol=0.5).to_wire()
        wire["tol"] = 0.5  # a hand-written client sends plain JSON
        assert CampaignJob.from_wire(wire).tol == 0.5


class TestJobWireValidation:
    def test_wrong_version_rejected(self):
        wire = job().to_wire()
        wire["version"] = JOB_WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            CampaignJob.from_wire(wire)
        # A version-1 job (which still carried the sweep executor) is a
        # version error, not a field error.
        with pytest.raises(WireError, match="version") as err:
            CampaignJob.from_wire(v1_job_wire())
        assert err.value.field == "version"

    def test_unknown_field_rejected(self):
        wire = job().to_wire()
        wire["frobnicate"] = 1
        with pytest.raises(WireError, match="frobnicate"):
            CampaignJob.from_wire(wire)
        # The executor field left the job in version 2.
        wire = job().to_wire()
        wire["executor"] = "inline"
        with pytest.raises(WireError, match="executor") as err:
            CampaignJob.from_wire(wire)
        assert err.value.field == "executor"

    def test_bool_rejected_where_int_expected(self):
        wire = job().to_wire()
        wire["n_peers"] = True
        with pytest.raises(WireError):
            CampaignJob.from_wire(wire)

    def test_bad_float_string_rejected(self):
        wire = job().to_wire()
        wire["tol"] = "not-a-float"
        with pytest.raises(WireError):
            CampaignJob.from_wire(wire)

    def test_constructor_validation_becomes_wire_error(self):
        wire = job().to_wire()
        wire["scheme"] = "gauss-seidel"
        with pytest.raises(WireError):
            CampaignJob.from_wire(wire)

    def test_non_mapping_rejected(self):
        with pytest.raises(WireError):
            CampaignJob.from_wire([1, 2, 3])

    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda w: w.pop("n"), "n", id="missing-n"),
        pytest.param(lambda w: w.update(tol=[1e-3]), "tol",
                     id="tol-not-a-number"),
        pytest.param(lambda w: w.update(delta=True), "delta",
                     id="delta-bool"),
        pytest.param(lambda w: w.update(scheme=3), "scheme",
                     id="scheme-not-a-string"),
        pytest.param(lambda w: w.update(n_paper="64"), "n_paper",
                     id="n_paper-string"),
        pytest.param(lambda w: w.update(extra=5), "extra",
                     id="extra-scalar"),
        pytest.param(lambda w: w.update(extra=[["lonely"]]), "extra",
                     id="extra-short-pair"),
        pytest.param(lambda w: w.update(extra=[["k", {"double": "0x1p0"}]]),
                     "extra[k]", id="extra-unknown-tag"),
    ])
    def test_rejection_names_the_field(self, edit, field):
        wire = job().to_wire()
        edit(wire)
        with pytest.raises(WireError) as err:
            CampaignJob.from_wire(wire)
        assert err.value.field == field

    def test_extra_mapping_decodes_like_pairs(self):
        original = job(extra={"k": (0.5, 2)})
        wire = original.to_wire()
        wire["extra"] = {"k": [{"float": (0.5).hex()}, 2]}
        assert CampaignJob.from_wire(wire) == original

    def test_unencodable_extra_value_refused_on_the_way_out(self):
        with pytest.raises(WireError, match="not wire-encodable") as err:
            job(extra={"k": {1, 2}}).to_wire()
        assert err.value.field == "extra"


class TestSubmissionEnvelope:
    def test_round_trip(self):
        jobs = [job(n_peers=p) for p in (1, 2, 4)]
        wire = submission_to_wire(jobs, warm_start=True, tag="t")
        decoded = submission_from_wire(json.loads(json.dumps(wire)))
        assert decoded.jobs == tuple(jobs)
        assert decoded.warm_start is True
        assert decoded.tag == "t"

    def test_minimal_envelope(self):
        decoded = submission_from_wire(
            {"version": SCHEMA_VERSION, "jobs": [job().to_wire()]})
        assert decoded.warm_start is False and decoded.tag is None

    @pytest.mark.parametrize("payload,code", [
        ([1], "bad-body"),
        ({"version": 999, "jobs": []}, "bad-version"),
        ({"version": SCHEMA_VERSION, "jobs": []}, "bad-request"),
        ({"version": SCHEMA_VERSION, "jobs": {}}, "bad-request"),
        ({"version": SCHEMA_VERSION, "jobs": [{}],
          "mystery": 1}, "bad-request"),
        ({"version": SCHEMA_VERSION, "jobs": [{"version": 1}]},
         "bad-job"),
        ({"version": SCHEMA_VERSION, "jobs": [v1_job_wire()]}, "bad-job"),
        ({"version": SCHEMA_VERSION,
          "jobs": [dict(job().to_wire(), executor="inline")]}, "bad-job"),
    ])
    def test_rejections_carry_structured_codes(self, payload, code):
        with pytest.raises(SchemaError) as err:
            submission_from_wire(payload)
        assert err.value.code == code
        body = err.value.payload()
        assert body["error"]["code"] == code
        assert body["error"]["message"]

    def test_bad_job_names_its_index_and_field(self):
        wire = job().to_wire()
        wire["tol"] = "bogus"
        with pytest.raises(SchemaError) as err:
            submission_from_wire(
                {"version": SCHEMA_VERSION,
                 "jobs": [job().to_wire(), wire]})
        assert err.value.field == "jobs[1].tol"

    def test_too_many_jobs_rejected(self):
        payload = {"version": SCHEMA_VERSION,
                   "jobs": [job().to_wire()] * (MAX_JOBS + 1)}
        with pytest.raises(SchemaError, match="limit"):
            submission_from_wire(payload)

    def test_bad_tag_and_warm_start(self):
        base = {"version": SCHEMA_VERSION, "jobs": [job().to_wire()]}
        with pytest.raises(SchemaError, match="warm_start"):
            submission_from_wire({**base, "warm_start": 1})
        with pytest.raises(SchemaError, match="tag"):
            submission_from_wire({**base, "tag": "x" * 500})

    def test_ladder_round_trip(self):
        wire = submission_to_wire([job()], ladder=True)
        decoded = submission_from_wire(json.loads(json.dumps(wire)))
        assert decoded.ladder is True
        # Not emitted (and decoded False) when off — old clients'
        # envelopes are unchanged byte-for-byte.
        off = submission_to_wire([job()])
        assert "ladder" not in off
        assert submission_from_wire(off).ladder is False

    def test_bad_ladder_rejected(self):
        base = {"version": SCHEMA_VERSION, "jobs": [job().to_wire()]}
        with pytest.raises(SchemaError, match="ladder") as err:
            submission_from_wire({**base, "ladder": "yes"})
        assert err.value.field == "ladder"

    def test_sub_floor_tolerance_is_structured_400(self):
        """Satellite: a float32 job below its termination floor is a
        schema rejection with ``field="tolerance"`` — the daemon turns
        it into a 400, never a 500 from inside a driver."""
        bad = job(dtype="float32")
        wire = bad.to_wire()
        wire["tol"] = (1e-7).hex()  # below the float32 floor
        with pytest.raises(SchemaError,
                           match="termination floor") as err:
            submission_from_wire(
                {"version": SCHEMA_VERSION,
                 "jobs": [job().to_wire(), wire]})
        assert err.value.code == "bad-job"
        assert err.value.field == "tolerance"
        assert "jobs[1]" in str(err.value)
        body = err.value.payload()
        assert body["error"]["field"] == "tolerance"


class TestUnifiedRunPath:
    def test_wire_decoded_job_runs_bit_identical(self):
        import numpy as np

        from repro.experiments.harness import run_job

        original = job()
        decoded = CampaignJob.from_wire(
            json.loads(json.dumps(original.to_wire())))
        a, b = run_job(original), run_job(decoded)
        assert a.elapsed == b.elapsed
        assert np.array_equal(a.report.u, b.report.u)
