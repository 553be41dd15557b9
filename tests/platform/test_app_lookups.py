"""Origin fast paths: memoized Gab account bodies and the URL-submission index.

The Gab origin serializes each account record once and assembles list
pages from those bodies; the bytes must equal ``json.dumps`` of the
record dicts.  The Dissenter submission flow looks a target URL up in an
index built at start-up; the first record with that URL must win, as a
linear scan over the URL universe would have it.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from repro.net.clock import VirtualClock
from repro.net.http import Request, url_with_params
from repro.platform.apps.dissenter_app import DissenterApp
from repro.platform.apps.gab_app import PAGE_SIZE, GabApp
from repro.platform.dissenter import DissenterState
from repro.platform.ids import ObjectId
from repro.platform.urlgen import UrlUniverse


def _get(app, url):
    return app.render(Request("GET", url))


def _begin(target):
    return url_with_params("https://dissenter.com/discussion/begin", {"url": target})


class TestGabAccountBodies:
    def test_account_body_equals_json_dumps(self, small_world):
        app = GabApp(small_world.gab, small_world.social, VirtualClock())
        live = [a for a in small_world.gab.accounts if not a.is_deleted][:25]
        for account in live:
            expected = json.dumps(app._account_json(account)).encode("utf-8")
            for _ in range(2):   # first call serializes, second hits the memo
                response = _get(
                    app, f"https://gab.com/api/v1/accounts/{account.gab_id}"
                )
                assert response.body == expected
                assert response.headers.get("Content-Type") == "application/json"

    def test_list_pages_equal_json_dumps_of_the_dicts(self, small_world):
        graph = small_world.social
        by_id = small_world.gab.by_id
        app = GabApp(small_world.gab, graph, VirtualClock())
        target = max(
            (g for g in graph.followers if not by_id[g].is_deleted),
            key=lambda g: len(graph.followers[g]),
        )
        ids = sorted(graph.followers_of(target))
        assert len(ids) > PAGE_SIZE, "want a multi-page follower list"
        pages = len(ids) // PAGE_SIZE + 2     # ends on an empty page
        for number in range(1, pages + 1):
            window = ids[(number - 1) * PAGE_SIZE : number * PAGE_SIZE]
            expected = json.dumps([
                app._account_json(by_id[g])
                for g in window
                if not by_id[g].is_deleted
            ]).encode("utf-8")
            response = _get(
                app,
                f"https://gab.com/api/v1/accounts/{target}/followers?page={number}",
            )
            assert response.status == 200
            assert response.body == expected
        assert expected == b"[]"

    def test_empty_list_page_is_json_empty_list(self, small_world):
        app = GabApp(small_world.gab, small_world.social, VirtualClock())
        account = next(a for a in small_world.gab.accounts if not a.is_deleted)
        response = _get(
            app,
            f"https://gab.com/api/v1/accounts/{account.gab_id}/following?page=100000",
        )
        assert response.body == json.dumps([]).encode("utf-8")
        assert response.json() == []


class TestBeginDiscussionIndex:
    def test_every_known_url_redirects_to_its_first_record(self, small_world):
        state = small_world.dissenter
        app = DissenterApp(state, VirtualClock())
        first: dict[str, str] = {}
        for record in state.urls.urls:
            first.setdefault(record.url, record.commenturl_id.hex)
        for target, url_id in list(first.items())[:200]:
            response = _get(app, _begin(target))
            assert response.status == 302
            assert response.headers.get("Location") == f"/discussion/{url_id}"

    def test_duplicate_target_keeps_first_match(self, small_world):
        state = small_world.dissenter
        original = state.urls.urls[0]
        twin = dataclasses.replace(original, commenturl_id=ObjectId("f" * 24))
        urls = [original, twin] + state.urls.urls[1:]
        universe = UrlUniverse(
            urls=urls,
            weights=np.ones(len(urls)),
            language_hints={},
            protocol_duplicate_pairs=0,
            trailing_slash_duplicate_pairs=0,
        )
        app = DissenterApp(
            DissenterState(users=[], comments=[], urls=universe), VirtualClock()
        )
        response = _get(app, _begin(original.url))
        assert response.headers.get("Location") == (
            f"/discussion/{original.commenturl_id.hex}"
        )

    def test_unknown_url_renders_new_discussion(self, small_world):
        app = DissenterApp(small_world.dissenter, VirtualClock())
        response = _get(app, _begin("https://nowhere.example/never"))
        assert response.status == 200
        assert "New discussion" in response.text
