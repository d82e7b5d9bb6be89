"""Golden ``manifest.json`` bytes: what every checkpoint of a lifecycle writes.

A checkpoint rewrites the whole manifest -- settings, scheme state, every
document's catalogue entry and, mid-transition, the plan.  How the
catalogue builds those entries (once per document, or again at every
checkpoint) must not change one byte of it.  These digests pin that over
one durable service's lifecycle on ``disk`` at 64-byte blocks:

* AE puts of 0 - 2 000 B, an overwrite and a delete;
* a re-encode to ``rs-4-2`` cut after two batches, checkpointed mid-way
  (AE documents pending next to stripe ones), an overwrite and a delete of
  pending documents, then the resumed run;
* stripe overwrites and deletes, a reopen (entries read back from the
  manifest) and an overwrite after it;
* a re-encode back to ``ae-2-2-5``, a repuncture chain ``p50 -> p80 ->
  plain`` and an alpha raise to ``ae-3-2-5``.

Every manifest the service writes is hashed, in order, and a ``flush()``
closes every step.  One exception: a repuncture toward more puncturing
flips the scheme in its start checkpoint, so only the manifest it settles
on is pinned there.  A staleness check rides along: an overwrite or a
delete, then a checkpoint, for a document landed in this process and for
one read back from the manifest.

``PYTHONPATH=src:. python tests/test_manifest_golden.py`` prints the table
(record on the parent of a catalogue change, never to make a failing test
pass).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from contextlib import nullcontext
from typing import Callable, List, Tuple

import pytest

import repro.system.catalogue as catalogue_module
from repro.system.catalogue import _read_document
from repro.system.service import StorageConfig, StorageService

BLOCK_SIZE = 64

#: ``(step, sha256)`` of every pinned manifest, in the order written.
MANIFEST_GOLDEN: List[Tuple[str, str]] = [
    ('ae-puts/0', '679876be8ca27d2af5054669155873ac4cbc9b8b07cd21f9d663e567d0e3d739'),
    ('ae-puts/1', '63713b68c49b3847a275ce468e0e0432e182c3eba6d247642251ab594225d263'),
    ('ae-overwrite-delete/0', '02ba8de69793bee8cad3cd73abbc5147495789c2eec90385630859464b95ee28'),
    ('reencode-cut/0', '0a034115bdff242e7a730e1983be08f7e4f99e0182e779a406c5214c1edd3ebc'),
    ('reencode-cut/1', '794d08aa1e0a459cd4076dbbc40eba4129c1bb70f8e7e35520e2aa2d04714c5c'),
    ('reencode-pending-overwrite-delete/0', '51f3dfaad076bbc15e16d7ef6b90b374ba1d938b7b6e4ae2f31948a440cdd46d'),
    ('reencode-resumed/0', '2b0cbc6b57cce17100fad232d26c7f53dc8ee421d07df2197c3d55edb20ec84f'),
    ('reencode-resumed/1', '2b0cbc6b57cce17100fad232d26c7f53dc8ee421d07df2197c3d55edb20ec84f'),
    ('rs-overwrite-delete/0', '0a8d221b74febafcf1dced4572143c87911198ce5bba301d8fc021d3a806b810'),
    ('rs-reopened/0', '0a8d221b74febafcf1dced4572143c87911198ce5bba301d8fc021d3a806b810'),
    ('rs-reopened/1', '0a8d221b74febafcf1dced4572143c87911198ce5bba301d8fc021d3a806b810'),
    ('rs-reopened-overwrite/0', '827bcb892491e1433eb4bef51ceceed70fd97510fefdab17dcf164ebedcfb013'),
    ('ae-2-2-5/0', '58f124ac9747c7e0356e49f03df316e067d82822611d3e2921a00a51dffeaa23'),
    ('ae-2-2-5/1', '6a0e382e0012d143d86d16e056e119eee19fb95649eb481b30e873dfded745b1'),
    ('ae-2-2-5/2', '6a0e382e0012d143d86d16e056e119eee19fb95649eb481b30e873dfded745b1'),
    ('ae-2-2-5-p50/0', '22f20e3d5f82e02627493072e0484565c6b14991201bb8b754c74ab59bfb57c2'),
    ('ae-2-2-5-p80/0', '1a96e886ec2ec7e36407954c82420856344fc621b63648f73013e544eb3a4ad3'),
    ('ae-2-2-5-p80/1', 'd1f10e46f452346f6ec3b32d0edffe6c2d320e37673b8d997357ded0d61dcc84'),
    ('ae-2-2-5-p80/2', '9f2a4b66fb062892fdefe75322b9d21c835107ea35195d05bf6c6e748220dfed'),
    ('ae-2-2-5-p80/3', '9f2a4b66fb062892fdefe75322b9d21c835107ea35195d05bf6c6e748220dfed'),
    ('ae-2-2-5-plain/0', '70f1780f49f13d709d8a7b62e229da47e47573a5bf93d1f5a3dc93d4e1c27af4'),
    ('ae-2-2-5-plain/1', '4316dc4cf878f3b3c1b2434da231fcf2bd593204b3afaed700f010d4ac137610'),
    ('ae-2-2-5-plain/2', '6a0e382e0012d143d86d16e056e119eee19fb95649eb481b30e873dfded745b1'),
    ('ae-2-2-5-plain/3', '6a0e382e0012d143d86d16e056e119eee19fb95649eb481b30e873dfded745b1'),
    ('ae-3-2-5-raised/0', '67af1ff3cb5befe626190ff1add5c71e0951639369e49eab287bb2257bf0180b'),
    ('ae-3-2-5-raised/1', '638406016f51adbe5c73650f4e10f8a6edc887503a2678b7fd3be4e2e0701e86'),
    ('ae-3-2-5-raised/2', '638406016f51adbe5c73650f4e10f8a6edc887503a2678b7fd3be4e2e0701e86'),
    ('ae-3-2-5-put/0', 'af6f562cb0f94eea6a48c637fea03d54ce49d39a5240494207b62f42d5fb9dd8'),
]


def _cut_after(allow: int) -> Callable[[object], "nullcontext[None]"]:
    """A re-encode doc guard that raises once ``allow`` batches moved."""
    entered: List[object] = []

    def guard(names: object) -> "nullcontext[None]":
        if len(entered) == allow:
            raise RuntimeError("cut")
        entered.append(names)
        return nullcontext()

    return guard


def lifecycle(root: str) -> List[Tuple[str, str]]:
    """Run the lifecycle under ``root``; the ``(step, sha256)`` rows."""
    rng = random.Random(50)
    path = os.path.join(root, catalogue_module.MANIFEST_NAME)
    written: List[str] = []
    rows: List[Tuple[str, str]] = []
    write_json = catalogue_module.write_json

    def recording(target, payload, fsync=False):
        write_json(target, payload, fsync=fsync)
        if target == path:
            with open(target, "rb") as handle:
                written.append(hashlib.sha256(handle.read()).hexdigest())

    def config(scheme: str) -> StorageConfig:
        return StorageConfig(
            scheme=scheme, backend="disk", data_dir=root, topology=12,
            block_size=BLOCK_SIZE, seed=5, batch_blocks=8,
        )

    def step(name: str, service: StorageService, every: bool = True) -> None:
        service.flush()
        kept = written if every else written[-1:]
        rows.extend((f"{name}/{index}", digest) for index, digest in enumerate(kept))
        written.clear()

    def do(name: str, service: StorageService, action: Callable[[], object]) -> None:
        action()
        step(name, service)

    catalogue_module.write_json = recording  # type: ignore[assignment]
    try:
        service = StorageService.open(config("ae-3-2-5"))
        for index, size in enumerate([0, 1, 64, 65, 300, 1000, 2000]):
            service.put(f"doc-{index}", rng.randbytes(size))
        step("ae-puts", service)
        service.put("doc-1", rng.randbytes(700))
        do("ae-overwrite-delete", service, lambda: service.delete("doc-3"))
        try:
            service.transition_to("rs-4-2", doc_guard=_cut_after(2))
        except RuntimeError:
            pass
        step("reencode-cut", service)
        service.put("doc-5", rng.randbytes(130))
        do("reencode-pending-overwrite-delete", service, lambda: service.delete("doc-6"))
        do("reencode-resumed", service, lambda: service.transition_to("rs-4-2"))
        service.put("doc-0", rng.randbytes(500))
        service.delete("doc-2")
        do("rs-overwrite-delete", service, lambda: service.put("doc-7", rng.randbytes(900)))
        service.close()
        service = StorageService.open(config("rs-4-2"))
        step("rs-reopened", service)
        do("rs-reopened-overwrite", service, lambda: service.put("doc-4", rng.randbytes(200)))
        do("ae-2-2-5", service, lambda: service.transition_to("ae-2-2-5"))
        service.transition_to("ae-2-2-5-p50")
        step("ae-2-2-5-p50", service, every=False)
        do("ae-2-2-5-p80", service, lambda: service.transition_to("ae-2-2-5-p80"))
        do("ae-2-2-5-plain", service, lambda: service.transition_to("ae-2-2-5"))
        do("ae-3-2-5-raised", service, lambda: service.transition_to("ae-3-2-5"))
        do("ae-3-2-5-put", service, lambda: service.put("doc-8", rng.randbytes(333)))
        service.close()
    finally:
        catalogue_module.write_json = write_json  # type: ignore[assignment]
    return rows


def test_every_checkpoint_writes_the_recorded_manifest(tmp_path):
    assert lifecycle(str(tmp_path / "live")) == MANIFEST_GOLDEN


@pytest.mark.parametrize("scheme", ["ae-3-2-5", "rs-4-2"])
@pytest.mark.parametrize("reopened", [False, True])
def test_a_checkpoint_writes_each_document_as_it_now_is(scheme, reopened, tmp_path):
    """An overwrite replaces a document's entry and a delete removes it, at
    the next checkpoint, whether the document was landed in this process or
    read back from the manifest."""
    config = StorageConfig(
        scheme=scheme, backend="disk", data_dir=str(tmp_path), topology=12,
        block_size=BLOCK_SIZE, seed=5,
    )
    service = StorageService.open(config)
    service.put("kept", bytes(300))
    service.put("dropped", bytes(100))
    service.flush()
    if reopened:
        service.close()
        service = StorageService.open(config)
    service.put("kept", b"x" * 700)
    service.delete("dropped")
    service.flush()
    path = os.path.join(str(tmp_path), catalogue_module.MANIFEST_NAME)
    with open(path, encoding="utf-8") as handle:
        documents = json.load(handle)["documents"]
    assert list(documents) == ["kept"]
    entry = _read_document("kept", documents["kept"], BLOCK_SIZE, path)
    assert entry == service.documents["kept"] and entry.length == 700
    service.close()
    with StorageService.open(config) as again:
        assert list(again.documents) == ["kept"] and again.get("kept") == b"x" * 700


if __name__ == "__main__":  # pragma: no cover - recording aid
    with tempfile.TemporaryDirectory() as workdir:
        print("MANIFEST_GOLDEN: List[Tuple[str, str]] = [")
        for row in lifecycle(os.path.join(workdir, "live")):
            print(f"    {row!r},")
        print("]")
