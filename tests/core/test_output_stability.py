"""The SSA-side drivers' printed output is pinned and hash-seed independent.

* **Golden digests.** One sha256 per program over the printed output of
  ssapre, ssapre-sp and mc-ssapre (min cut and lospre), each one-shot
  and with ``rounds=4``, for the running example and seeds 0-9 of every
  fuzz shape.  The analyses between Rename and Finalize compute unique
  fixpoints, so refactoring them must leave every digest unchanged.  A
  deliberate change of the output re-records the table with
  ``PYTHONPATH=src python -m tests.core.test_output_stability``.
* **Hash-seed independence.** Temp names and t-Φ versions follow the
  order Φs and classes are visited in; that order must come from the
  program, never from iterating a ``set`` of strings.  Two interpreters
  with different ``PYTHONHASHSEED`` must print the same output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.generator import generate_program
from repro.check.driver import SHAPES, case_inputs, spec_for_shape
from repro.examples_data.running_example import build_running_example
from repro.ir.printer import format_function
from repro.passes.compiler import PipelineConfig, compile as compile_func
from repro.pipeline import prepare
from repro.profiles.interp import run_function

#: (variant, solver, rounds) of every pinned compile.
CONFIGS = tuple(
    (variant, solver, rounds)
    for rounds in (1, 4)
    for variant, solver in (
        ("ssapre", "mincut"),
        ("ssapre-sp", "mincut"),
        ("mc-ssapre", "mincut"),
        ("mc-ssapre", "lospre"),
    )
)

REPO = Path(__file__).resolve().parents[2]

PROGRAMS = ("running",) + tuple(
    f"{shape}{seed}" for shape in SHAPES for seed in range(10)
)


def _program(name: str):
    """The prepared function and training profile of one pinned program."""
    if name == "running":
        example = build_running_example()
        return prepare(example.func), example.profile
    shape = name.rstrip("0123456789")
    spec = spec_for_shape(shape, int(name[len(shape):]))
    prepared = prepare(generate_program(spec).func)
    return prepared, run_function(prepared, case_inputs(spec)[0]).profile


def printed_outputs(name: str) -> list[str]:
    """The printed output of every :data:`CONFIGS` compile of *name*."""
    prepared, profile = _program(name)
    return [
        format_function(
            compile_func(
                prepared,
                PipelineConfig(variant, rounds=rounds, solver=solver),
                profile,
            ).func
        )
        for variant, solver, rounds in CONFIGS
    ]


def output_digest(name: str) -> str:
    return hashlib.sha256("\n\f".join(printed_outputs(name)).encode()).hexdigest()


GOLDEN = {
    'running': '05dd182aca37e2935b0323804fc4e052caecf59fce39e64d6b8a4acc7e9729ab',
    'cint0': 'defef2ad69eb4160715ace697466bf46e9ec3878e0c56066a992f6b13c5bc630',
    'cint1': '1613da9bde12cff772df7ba5674e8c30330e846102afea108b139a9d7d9513ae',
    'cint2': '23e4b2ec0ef3051bd9ff4a344847bd89543b4a72b24645811fa9576f3901538b',
    'cint3': '7bf4d769b9e0a62cc6b67d450df3a3a2815b55953c9a936b3193dd4c32599c29',
    'cint4': '9ef1851f270ddc5a63e4919054e3f7b3ed8cc49e77086e4dd57c6b5883d8f352',
    'cint5': 'd78e2858b61cf747099a0f694a9acdad5c6ed6238568f90d6a914068b270b0a6',
    'cint6': 'ec9c1587d734ffdb3cb8cb7c656dd71b2842c96f684151a595154770c5d8af71',
    'cint7': '7d262f2265c73887cf582173d130d1622a5c14a8d9d3d280e0c531c1e3b0905a',
    'cint8': '014a492425234c0e59b237da088f201c26d0df4d317afad1e9458f7bda9f67e1',
    'cint9': '19ebfe1cbbcd96aeae2d785431365b3f0b85dc9a18e0ef81cae426f3221ee27e',
    'cfp0': '11f23af6a1639c787f790e54ed80952a9f5de01813aa8bd5b1135cd4083c761d',
    'cfp1': '4608d163db4b121f22e203c5c36b01e839c6fa5b722ebed58d3492b6f0cf6268',
    'cfp2': '2a71aa65d716414843909262b1d1138cbabd7afce945944d3d454606f6795c8a',
    'cfp3': 'be61784327b112ae7092d61b0baa72dd4fd8b8e751aacdace04cd7a822ba118d',
    'cfp4': '7199cd8f5af0b63ad8a36d1d2d469f44a57df9d42f08e0b36440fa2c0eebbb85',
    'cfp5': 'c653fc9ab383e09d5d0028e2aa45f8573b2f7a141dce6f404d142b2be13c7f40',
    'cfp6': '0f2de48685fe83a4771d4b6e2e1e4d936741eb2a986b774997d05eac60b55488',
    'cfp7': 'd414d3e388ba87bae4fee08b9f53bb5aebfc9f7729b4d497b8506b54432a3647',
    'cfp8': '751f61f09c318c6c531397bf20dc857bd83cc7745d7396d7907a4f8fda8fd861',
    'cfp9': 'ccbdaf370d0d421afa1114efc0f612eff94e11204bd87ebdcc7ed446403be766',
    'composite0': '451bd487e2743b515e26d7900bfbc6cd9f8cf2ac61384939a144cf74599eed9d',
    'composite1': '64e47fd52cdd928c780b6d6fa4d1d49271121ea58e19f24ab725201a4f53ce12',
    'composite2': '695a1cd16807c57e36d27298fbac7bcb3e854220226fef7fb252de5ebb1da5c0',
    'composite3': '601d26f17ca4b3f315c55d7264f7e130ea062af4a75543d3481ddeee8c3900e9',
    'composite4': '5aefb4dd0d2638b5dd46e434099bb24a8132ae7b03bfb30224cc00a6e282171d',
    'composite5': 'd22efe309d3ba079ab69f59d8b592d3e3d9e7f7baee0e819cceb7e035ad66a8b',
    'composite6': '5dd6fa132393ed52fcbd33250d023d007c4f3e924644924ce9374c240d3ff416',
    'composite7': 'b7fdc262ebde84c841b6c2e45a8f7f5bfacf089fb3dd234670b070ab147164df',
    'composite8': 'dc842420cc009bdb4fc7796b795d097a24e825e58e2bdfbfab40e56d0269ac79',
    'composite9': '23ebed247023e3d66294c49946e5229701ce55514df60877f19ee4cd8aee09fe',
    'mem0': 'eede17f1c9f8d0ad277c7a6320ab538cd2f48488731310ba3566983d8d52fb29',
    'mem1': 'ee6a0649cc334c54739d9f30803ecaed14c863ce19d526d9ef80e415bde29509',
    'mem2': 'c75c89a320ee9af7f9b657900da99cfa0a929e869a84f234ee7ca0eadd0e4dcc',
    'mem3': '2adc388f988f080a1df8d86dfbaf04c67fce76e169c6a30415a8c1a0b4871716',
    'mem4': '53999a1d300f9161df618bad7302106a07b7d1e9086f729ed47e7204ad7e2230',
    'mem5': 'b79985dc88548805b87898d4485ca6c22d11c50b3d30f38bb20a2cb9a4469a77',
    'mem6': '9f356cf1a12c11b19271da6ab5e0d590b2802e33841005ac4189fa7dec047622',
    'mem7': '59969ac07089667f38c2a1e3bf56eec6004eb19a977246944be280ffec5912ac',
    'mem8': '3e04332c226f76ee0513326696bdd65cab4a6b738bc53761c17a01314393e891',
    'mem9': 'b200c6b42facf41fe1bdf6a509f670573221d561c4d05e926a3a077589310119',
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_printed_output_matches_golden(name):
    assert output_digest(name) == GOLDEN[name]


def test_printed_output_is_independent_of_the_hash_seed():
    names = ["running", "cint0", "composite0", "mem0", "mem1"]
    script = (
        "import json\n"
        "from tests.core.test_output_stability import printed_outputs\n"
        f"print(json.dumps([printed_outputs(n) for n in {names!r}]))\n"
    )
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src"), str(REPO)]
        ))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        runs.append(json.loads(out.stdout))
    assert runs[0] == runs[1]
    assert runs[0] == [printed_outputs(n) for n in names]


if __name__ == "__main__":
    for program in PROGRAMS:
        print(f"    {program!r}: {output_digest(program)!r},")
