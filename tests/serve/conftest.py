"""Shared fixtures for the serving-layer tests."""

from __future__ import annotations

import pytest

from repro.ir.printer import format_function
from repro.pipeline import PipelineConfig, prepare
from repro.serve.keys import artifact_key
from repro.serve.server import build_artifact

from tests.conftest import build_diamond, build_while_loop


@pytest.fixture
def diamond_source() -> str:
    return format_function(build_diamond())


@pytest.fixture
def loop_source() -> str:
    return format_function(build_while_loop())


def make_artifact(func, variant: str = "ssapre"):
    """A real artifact for one of the conftest functions (no profile)."""
    prepared = prepare(func)
    config = PipelineConfig(variant=variant)
    key = artifact_key(prepared, config)
    return key, build_artifact(prepared, config, key=key)


@pytest.fixture
def diamond_artifact():
    return make_artifact(build_diamond())


@pytest.fixture
def loop_artifact():
    return make_artifact(build_while_loop())
