"""Golden digests: every registry entry's output, pinned absolutely.

The bit-identity tests elsewhere are relative (every executor × backend
agrees with every other), so a change that moves every path together —
seeding, mask generation, data rendering, a default axis — passes them.
These digests do not.  For each entry in ``tests/golden/digests.json``:

* ``describe`` — sha256 of :func:`repro.api.describe` (params, defaults,
  quick overrides: everything ``repro describe`` prints);
* ``result`` — sha256 of the canonical ``--quick`` report
  (:func:`repro.service.wire.canonical_result`).  Fig. 4f keeps only its
  platform names and image count (its seconds are wall-clock), Table I
  only its keys (its values are host facts).  A ``--backend packed`` run
  must give the same digest once the backend it names is set to float's;
* ``axes`` — for entries whose sweep axis defaults to ``None`` (filled in
  by the experiment itself), the series ``xs`` of a run with the quick
  overrides minus that axis and the crossbar grid (the default axes
  assume the default 40×10 crossbar), so the default axis is pinned too.

Results depend on the cached trained weights, which each machine trains
for itself; they are compared only when the local weights hash equals
the stored one.  On a mismatch the failure lists every entry that moved
with its new digest.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.service.wire import canonical_result

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

#: models whose cached weights the quick runs read (fig5a-c: binary_alexnet)
WEIGHT_MODELS = ("lenet", "binary_alexnet")


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def weights_digest() -> str:
    """sha256 over the cached weights of every model a quick run reads."""
    from repro.experiments.common import trained_lenet, trained_zoo_model
    digest = hashlib.sha256()
    for name in WEIGHT_MODELS:
        model = (trained_lenet() if name == "lenet"
                 else trained_zoo_model(name))
        for key, value in sorted(model.state_dict().items()):
            digest.update(f"{name}.{key}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def _result_payload(name: str, report) -> object:
    canonical = canonical_result(report.to_dict())
    # the backend a run names is all a packed run may change
    for part in ("engine", "meta"):
        if "backend" in canonical.get(part, {}):
            canonical[part]["backend"] = "float"
    if name == "fig4f":
        runtime = canonical["tables"]["runtime"]
        return {"platforms": [row[0] for row in runtime["rows"]],
                "images": runtime["images"]}
    if name == "table1":
        return [row[0] for row in canonical["tables"]["setup"]["rows"]]
    return canonical


def _default_axes(info: dict) -> list[str]:
    """Sweep-axis params that default to None and that quick overrides."""
    return [p["name"] for p in info["params"]
            if p["kind"] in ("floats", "ints") and p["default"] is None
            and p["name"] in info["quick"]]


def catalog_names() -> list[str]:
    """The built-in entries (tests register fixture entries of their own)."""
    return [name for name in api.experiment_names()
            if api.REGISTRY.get(name).func.__module__ == "repro.api.catalog"]


def describe_digests() -> dict[str, str]:
    return {name: _sha(api.describe(name)) for name in catalog_names()}


def result_digests(backend: str = "float") -> dict[str, dict[str, str]]:
    """Each entry's ``result`` digest on ``backend``, and on float its
    ``axes`` digest."""
    digests = {}
    for name in catalog_names():
        entry = {"result": _sha(_result_payload(
            name, api.run(name, quick=True, backend=backend)))}
        digests[name] = entry
        if backend != "float":
            continue
        info = api.describe(name)
        axes = _default_axes(info)
        if axes:
            params = {k: v for k, v in info["quick"].items()
                      if k not in (*axes, "rows", "cols")}
            report = api.run(name, params=params)
            entry["axes"] = _sha({s.label: s.xs for s in report.series})
    return digests


def _moved(expected: dict, actual: dict, keys) -> list[str]:
    lines = []
    for name in sorted(set(expected) | set(actual)):
        for key in keys:
            old = expected.get(name, {}).get(key)
            new = actual.get(name, {}).get(key)
            if old != new:
                lines.append(f"  {name}.{key}: {new}  (golden: {old})")
    return lines


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_describe_digests_match_golden(golden):
    actual = {name: {"describe": digest}
              for name, digest in describe_digests().items()}
    moved = _moved(golden["entries"], actual, ("describe",))
    assert not moved, "describe output moved:\n" + "\n".join(moved)


def _skip_unless_golden_weights(golden) -> None:
    local = weights_digest()
    if local != golden["weights"]:
        pytest.skip(f"cached weights differ from the golden ones "
                    f"(local {local}, golden {golden['weights']})")


def test_quick_results_match_golden(golden):
    _skip_unless_golden_weights(golden)
    moved = _moved(golden["entries"], result_digests(), ("result", "axes"))
    assert not moved, "quick results moved:\n" + "\n".join(moved)


def test_packed_quick_results_match_golden(golden):
    """The packed backend's results are float's, entry by entry."""
    _skip_unless_golden_weights(golden)
    moved = _moved(golden["entries"], result_digests("packed"), ("result",))
    assert not moved, "packed quick results moved:\n" + "\n".join(moved)
