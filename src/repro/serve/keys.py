"""Content-addressed cache keys for compiled artifacts.

An artifact — an optimised function plus its lowered
:class:`~repro.profiles.compiled.CompiledProgram` and pass report — is a
pure function of three inputs:

1. the *structure* of the prepared source function,
2. the pipeline configuration (:class:`~repro.pipeline.PipelineConfig`),
3. the profile the optimiser was trained on.

The key therefore hashes exactly those three, nothing else.  Structural
identity uses the printer's normalization mode
(:func:`repro.ir.printer.format_function` with ``normalize=True``):
SSA version renumbering — the classic source of spurious cache misses,
since value ids depend on construction order — never changes the key,
while any semantic difference does.

Profiles are keyed either *extensionally* (hashing the sorted node/edge
counts of an explicit :class:`~repro.profiles.profile.ExecutionProfile`)
or *intensionally* (hashing the training argument vector; the training
run on the compiled engine is deterministic) — the serving layer uses
the intensional form so a request never has to ship a profile.  A
profile-free config is keyed ``unprofiled`` whatever profile or training
input accompanies it: the compile never reads them.

Keys are ``sha256`` hex digests over a versioned canonical payload;
bump :data:`KEY_SCHEMA` whenever the payload layout changes so stale
on-disk artifacts can never be misread as current ones.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from repro.ir.function import Function
from repro.ir.printer import format_function, normalize_versions, version_renumbering
from repro.pipeline import PipelineConfig
from repro.profiles.profile import ExecutionProfile

#: Version of the canonical key payload.  Changing how any section is
#: rendered requires a bump: old artifacts then miss (and are recompiled)
#: instead of being served under a stale interpretation.
#: 2: PipelineConfig.canonical() is now derived from the dataclass fields
#:    (full field names, solver knob included).
#: 3: the function fingerprint gains an ``arrays:`` section (name/length
#:    of every declared array).  Array lengths decide which load classes
#:    are provably in-bounds — i.e. how aggressively the compile may
#:    speculate — so two sources differing only in a declared length must
#:    never share an artifact.
#: 4: the ``engine:`` section is gone (every artifact trains and runs on
#:    the compiled engine), and profile-free configs key ``unprofiled``
#:    even when a request carries ``train_args``.
KEY_SCHEMA = 4

__all__ = [
    "KEY_SCHEMA",
    "function_fingerprint",
    "profile_fingerprint",
    "artifact_key",
    "structural_key",
]


def _digest(sections: Iterable[str]) -> str:
    hasher = hashlib.sha256()
    for section in sections:
        payload = section.encode()
        # Length-prefix each section so no concatenation of different
        # sections can collide with another split of the same bytes.
        hasher.update(f"{len(payload)}:".encode())
        hasher.update(payload)
    return hasher.hexdigest()


def function_fingerprint(func: Function) -> str:
    """A structural fingerprint of *func*, stable across value renumbering.

    Two functions fingerprint identically iff their normalized printed
    forms coincide — same blocks, same instructions, same CFG — no matter
    how their SSA versions were numbered.  The function *name* is
    deliberately excluded: serving identical bodies under different names
    must share one artifact.
    """
    # A prepared source function carries no SSA versions, so it already
    # prints in normal form: skip the renumbered clone.
    normalized = normalize_versions(func) if version_renumbering(func) else func
    text = format_function(normalized)
    # Drop the header line (it carries the function name); parameters and
    # the array environment are re-rendered separately — from the
    # *normalized* function, so their SSA versions cannot leak
    # construction order into the key — and arity, parameter naming and
    # every declared array's length still count.  Array lengths gate the
    # in-bounds speculation refinement, so they are key material even
    # when the bodies coincide.
    body = text.split("\n", 1)[1] if "\n" in text else text
    params = ",".join(str(p) for p in normalized.params)
    arrays = ",".join(
        f"{name}:{length}" for name, length in sorted(normalized.arrays.items())
    )
    return _digest((f"params:{params}", f"arrays:{arrays}", body))


def profile_fingerprint(profile: ExecutionProfile) -> str:
    """An extensional fingerprint of a profile's node and edge counts."""
    nodes = ";".join(
        f"{label}={count}"
        for label, count in sorted(profile.node_freq.items())
        if count
    )
    edges = ";".join(
        f"{src}->{dst}={count}"
        for (src, dst), count in sorted(profile.edge_freq.items())
        if count
    )
    return _digest((f"nodes:{nodes}", f"edges:{edges}"))


def artifact_key(
    func: Function,
    config: PipelineConfig,
    *,
    train_args: Iterable[int] | None = None,
    profile: ExecutionProfile | None = None,
) -> str:
    """The content address of one compiled artifact.

    Exactly one of ``train_args`` (intensional: the profile will be
    derived deterministically from the function and these arguments) or
    ``profile`` (extensional: hash the counts themselves) must be
    provided for profile-guided configs.  Profile-free configs may omit
    both, and are keyed ``unprofiled`` whatever they pass.
    """
    if profile is not None and train_args is not None:
        raise ValueError("pass either train_args or profile, not both")
    if profile is None and train_args is None and config.needs_profile:
        raise ValueError(
            f"variant {config.variant!r} is profile-guided; the key needs "
            "train_args or an explicit profile"
        )
    if not config.needs_profile:
        profile_part = "unprofiled"
    elif profile is not None:
        profile_part = f"profile:{profile_fingerprint(profile)}"
    else:
        profile_part = "train:" + ",".join(str(a) for a in train_args)
    return _digest((
        f"schema:{KEY_SCHEMA}",
        f"func:{function_fingerprint(func)}",
        f"config:{config.canonical()}",
        profile_part,
    ))


def structural_key(func: Function, config: PipelineConfig) -> str:
    """The profile-free identity of a served program.

    Everything :func:`artifact_key` hashes *except* the profile: function
    structure and config.  All artifacts compiled for the same program
    under different profiles share one structural key — this is the
    level at which the adaptation tier (:mod:`repro.serve.adapt`)
    accumulates live profiles, detects drift and hot-swaps artifacts:
    the artifact *content* address changes with every fresh profile, the
    structural address never does.
    """
    return _digest((
        f"schema:{KEY_SCHEMA}",
        f"func:{function_fingerprint(func)}",
        f"config:{config.canonical()}",
        "structural",
    ))
