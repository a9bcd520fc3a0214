"""Durability under a live server: hot reload and the registry LRU.

The durability contract, end to end but in-process: a manifest change
hot-reloads atomically, and a *failed* reload (a broken manifest, a
shard that will not decode, a shard with a rotted body byte) changes
nothing; and the registry's attachment LRU stays sound while server
sessions churn concurrently across domains.
"""

from __future__ import annotations

import asyncio
import json
import os
import struct

from repro.runtime import PackedIndex
from repro.runtime.store import write_shard
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.io import save_network

from .conftest import disambiguate, get, post, request, running


def _registry_tree(tmp_path):
    """Two-domain manifest (alpha default), both domains sharded."""
    nets = {}
    for name, seed in (("alpha", 101), ("beta", 202)):
        net = generate_network(GeneratorConfig(
            n_concepts=120, seed=seed, gloss_style="local"
        ))
        save_network(net, str(tmp_path / f"{name}.network.json"))
        write_shard(
            PackedIndex(net),
            str(tmp_path / f"{name}.rxpd"),
            fingerprint=net.fingerprint(),
        )
        nets[name] = net
    manifest = tmp_path / "registry.toml"
    manifest.write_text(
        'default = "alpha"\n'
        '\n'
        '[networks.alpha]\n'
        'network = "alpha.network.json"\n'
        'shard = "alpha.rxpd"\n'
        '\n'
        '[networks.beta]\n'
        'network = "beta.network.json"\n'
        'shard = "beta.rxpd"\n'
    )
    return str(manifest), nets


def _doc_for(network, n_words=8):
    """An XML document speaking ``network``'s vocabulary."""
    words = sorted(network.words())[:n_words]
    body = "".join(f"<{w}>{w}</{w}>" for w in words)
    return f"<record>{body}</record>"


def _domain_request(xml: str, domain: str) -> bytes:
    """A JSON-envelope request routed to a registry domain."""
    return post("/v1/disambiguate", json.dumps(
        {"xml": xml, "name": f"{domain}.xml", "domain": domain}
    ).encode("utf-8"))


def run(coro):
    return asyncio.run(coro)


class TestHealthzDurability:
    def test_block_shape_without_registry_or_scrubber(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(server, get("/healthz"))

        payload = run(go()).json()
        assert payload["status"] == "ok"
        durability = payload["durability"]
        assert list(durability) == ["reload"]
        reload_block = durability["reload"]
        assert reload_block["generation"] == 0
        assert reload_block["count"] == 0
        assert reload_block["watching"] == []
        assert reload_block["last_error"] == ""


class TestHotReload:
    def test_maybe_reload_fires_only_on_watched_changes(
        self, make_app, tmp_path
    ):
        manifest, nets = _registry_tree(tmp_path)
        doc = _doc_for(nets["alpha"])
        app = make_app(registry=manifest)

        async def go():
            async with running(app) as server:
                assert app.maybe_reload() is False  # nothing changed
                stat = os.stat(manifest)
                os.utime(manifest, ns=(
                    stat.st_atime_ns, stat.st_mtime_ns + 1_000_000
                ))
                assert app.maybe_reload() is True
                assert app.maybe_reload() is False  # snapshot re-seeded
                payload = (await request(server, get("/healthz"))).json()
                assert payload["durability"]["reload"]["count"] == 1
                assert payload["durability"]["reload"]["generation"] == 1
                assert manifest in payload["durability"]["reload"]["watching"]
                # The swapped state serves, mmap-backed as before.
                assert payload["index"]["backing"] == "mmap"
                answer = await request(server, _domain_request(doc, "alpha"))
                assert answer.status == 200

        run(go())

    def test_failed_reload_keeps_the_old_state_serving(
        self, make_app, tmp_path, lexicon, figure1_xml
    ):
        manifest, nets = _registry_tree(tmp_path)
        shard = str(tmp_path / "lexicon.rxpd")
        write_shard(
            PackedIndex(lexicon), shard, fingerprint=lexicon.fingerprint()
        )

        def break_manifest():
            with open(manifest, "w") as fh:
                fh.write("default = \"nowhere\"\nnot toml [[[")

        def replace_shard(mutate):
            with open(shard, "rb") as fh:
                payload = bytearray(fh.read())
            mutate(payload)
            with open(shard + ".new", "wb") as fh:
                fh.write(payload)
            os.replace(shard + ".new", shard)

        def break_shard():
            # One 0xFF id-table byte, renamed into place: the shard still
            # attaches (its string tables decode lazily) but never decodes.
            def flip_id_byte(payload):
                (meta_len,) = struct.unpack_from("<I", payload, 32)
                payload[32 + 8 + ((meta_len + 7) & ~7) + 8] = 0xFF

            replace_shard(flip_id_byte)

        def rot_shard():
            # One flipped body byte that attaches and decodes: only the
            # body CRC can tell.
            def flip_last_byte(payload):
                payload[-1] ^= 0xFF

            replace_shard(flip_last_byte)
            PackedIndex.from_mmap(shard)  # attaches unverified

        def restore_shard():
            write_shard(
                PackedIndex(lexicon), shard,
                fingerprint=lexicon.fingerprint(),
            )

        cases = [
            (
                make_app(registry=manifest), break_manifest,
                _domain_request(_doc_for(nets["alpha"]), "alpha"),
            ),
            (make_app(shard=shard), break_shard, disambiguate(figure1_xml)),
            (make_app(shard=shard), rot_shard, disambiguate(figure1_xml)),
        ]
        for app, break_source, doc_request in cases:
            restore_shard()

            async def go():
                async with running(app) as server:
                    before = await request(server, doc_request)
                    assert before.status == 200
                    break_source()
                    assert app.reload() is False
                    payload = (await request(server, get("/healthz"))).json()
                    assert payload["durability"]["reload"]["last_error"]
                    assert payload["durability"]["reload"]["count"] == 0
                    # The old state keeps serving, answering as before.
                    answer = await request(server, doc_request)
                    assert answer.status == 200
                    assert answer.body == before.body

            run(go())


class TestRegistryLRUUnderSessions:
    def test_evicted_domain_reattaches_cleanly_under_churn(
        self, make_app, tmp_path
    ):
        # max_sessions=2 (default + one domain) forces session-LRU
        # eviction while max_attached=1 forces attachment-LRU eviction
        # underneath it: alpha's mmap is released while its session is
        # being churned out.  Re-requesting alpha must re-attach fresh
        # — same bytes as the cold answer, mmap-backed, no stale
        # fingerprint and no dangling mapping.
        manifest, nets = _registry_tree(tmp_path)
        alpha_doc = _doc_for(nets["alpha"])
        beta_doc = _doc_for(nets["beta"])
        app = make_app(registry=manifest, max_sessions=2)

        async def go():
            async with running(app) as server:
                cold = await request(server, _domain_request(
                    alpha_doc, "alpha"
                ))
                assert cold.status == 200
                app._registry.max_attached = 1
                for _ in range(3):
                    answers = await asyncio.gather(
                        request(server, _domain_request(alpha_doc, "alpha")),
                        request(server, _domain_request(beta_doc, "beta")),
                    )
                    assert [a.status for a in answers] == [200, 200]
                stats = app._registry.stats()
                assert stats["evictions"] >= 1
                again = await request(server, _domain_request(
                    alpha_doc, "alpha"
                ))
                assert again.status == 200
                assert again.body == cold.body
                attached = app._registry.attach("alpha")
                assert attached.index.backing == "mmap"
                assert attached.network.fingerprint() == \
                    nets["alpha"].fingerprint()

        run(go())
