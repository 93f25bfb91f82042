"""Tests for the public API facade and the error-taxonomy redesign.

The api_redesign contract: ``repro`` and ``repro.serving`` declare an
explicit, documented ``__all__`` whose every name resolves; the error
taxonomy lives in :mod:`repro.errors` under :class:`ReStoreError` with
stable wire codes.  Every module imports with nothing installed beyond
the dependencies ``pyproject.toml`` declares.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.serving
from repro.errors import (
    WIRE_CODES,
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactSchemaError,
    ArtifactVersionError,
    ConfigurationError,
    ProtocolError,
    QueryValidationError,
    ReStoreError,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerError,
    error_for_code,
    wire_code,
)


class TestFacadeAll:
    @pytest.mark.parametrize("module", [repro, repro.serving])
    def test_every_all_name_resolves(self, module):
        assert module.__all__ == sorted(set(module.__all__), key=module.__all__.index)
        for name in module.__all__:
            assert getattr(module, name) is not None, name

    def test_top_level_exports_the_redesigned_layers(self):
        for name in ("ServingCore", "CompletionService", "ServiceWorker",
                     "FleetRouter", "FleetConfig", "ReStoreError"):
            assert name in repro.__all__

    def test_serving_all_is_grouped_and_complete(self):
        for name in ("ServingCore", "ServiceConfig", "CompletionService",
                     "ServiceWorker", "FleetRouter", "PROTOCOL_VERSION",
                     "save_artifact", "load_artifact", "ReStoreError"):
            assert name in repro.serving.__all__


#: Imports every ``repro`` module while a meta-path finder refuses any
#: top-level package outside the standard library and the declared
#: dependencies.
_ONLY_DECLARED = textwrap.dedent("""
    import importlib, importlib.abc, pkgutil, sys

    ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "repro"}

    class OnlyDeclared(importlib.abc.MetaPathFinder):
        def find_spec(self, fullname, path=None, target=None):
            top = fullname.partition(".")[0]
            # sysconfig's build-time data module is named per platform and
            # is missing from stdlib_module_names.
            if top not in ALLOWED and not top.startswith("_sysconfigdata"):
                raise ModuleNotFoundError(
                    f"undeclared dependency {top!r}", name=fullname
                )
            return None

    sys.meta_path.insert(0, OnlyDeclared())
    import repro
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    print("ok")
""")


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is new in 3.10")
def test_every_module_imports_with_declared_dependencies_only():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _ONLY_DECLARED], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


class TestErrorTaxonomy:
    ALL_ERRORS = [
        ConfigurationError, QueryValidationError, ServiceOverloadedError,
        ServiceClosedError, ProtocolError, WorkerError, ArtifactError,
        ArtifactVersionError, ArtifactIntegrityError, ArtifactSchemaError,
    ]

    def test_single_base_class(self):
        for cls in self.ALL_ERRORS:
            assert issubclass(cls, ReStoreError)
        assert issubclass(ReStoreError, Exception)

    def test_stdlib_bases_preserved_for_existing_handlers(self):
        # Pre-redesign code caught ValueError / RuntimeError; the taxonomy
        # keeps those contracts.
        for cls in (ConfigurationError, QueryValidationError, ArtifactError,
                    ArtifactVersionError, ArtifactIntegrityError,
                    ArtifactSchemaError):
            assert issubclass(cls, ValueError), cls
        for cls in (ServiceOverloadedError, ServiceClosedError,
                    ProtocolError, WorkerError):
            assert issubclass(cls, RuntimeError), cls

    def test_codes_are_stable_and_unique(self):
        codes = [cls.code for cls in self.ALL_ERRORS]
        assert len(set(codes)) == len(codes)
        assert wire_code(ServiceOverloadedError("x")) == "service_overloaded"
        assert wire_code(QueryValidationError("x")) == "query_invalid"
        assert wire_code(KeyError("not ours")) == "internal"

    def test_wire_codes_round_trip(self):
        for code, cls in WIRE_CODES.items():
            restored = error_for_code(code, "msg")
            assert isinstance(restored, cls)
            assert restored.code == code
        fallback = error_for_code("unheard_of_code", "msg")
        assert isinstance(fallback, WorkerError)
