"""The page parsers search from ``<body>``: same results as a full scan.

Every real page carries ~9 kB of stylesheet filler in its ``<head>``, so
the parsers start their regex searches at the ``<body>`` tag.  A page
with that tag renamed has no ``<body>`` to find and is scanned from
offset 0 — the full-body scan — so parsing both forms of every page a
small world renders must agree field for field.
"""

from __future__ import annotations

import pytest

from repro.crawler.parsing import (
    parse_comment_author_blob,
    parse_comment_page,
    parse_comments,
    parse_user_page,
    parse_youtube_page,
)
from repro.net.http import Request
from repro.platform import WorldConfig, build_world
from repro.platform.apps import build_origins


def _full_scan(body: str) -> str:
    """The same page without a ``<body>`` tag: parsed from offset 0."""
    return body.replace("<body>", "<body data-full-scan>")


@pytest.fixture(scope="module")
def rendered_pages():
    """Every Dissenter and YouTube page a scale-0.001 world renders."""
    world = build_world(WorldConfig(scale=0.001, seed=5))
    origins = build_origins(world)
    dissenter = origins.dissenter
    state = world.dissenter
    sessions = [None, dissenter.create_session(nsfw=True, offensive=True)]

    def render(app, url, token=None):
        request = Request("GET", url)
        if token is not None:
            request.headers.set("Cookie", f"session={token}")
        response = app.render(request)
        assert response.status == 200, url
        return response.text

    pages = {"user": [], "discussion": [], "comment": [], "youtube": []}
    for user in state.users:
        pages["user"].append(
            render(dissenter, f"https://dissenter.com/user/{user.username}")
        )
    for record in state.urls.urls:
        for token in sessions:
            pages["discussion"].append(render(
                dissenter,
                f"https://dissenter.com/discussion/{record.commenturl_id.hex}",
                token,
            ))
    for comment in state.comments:
        token = sessions[1] if (comment.nsfw or comment.offensive) else None
        pages["comment"].append(render(
            dissenter,
            f"https://dissenter.com/comment/{comment.comment_id.hex}",
            token,
        ))
    for url in sorted(world.youtube.items):
        if url.startswith(("https://youtube.com/", "https://www.youtube.com/")):
            host_url = "https://youtube.com/" + url.split("/", 3)[3]
            pages["youtube"].append(render(origins.youtube, host_url))
    return pages


def test_every_kind_of_page_was_rendered(rendered_pages):
    for kind, bodies in rendered_pages.items():
        assert bodies, kind
        assert all("<body>" in body for body in bodies), kind


def test_user_pages_match_full_scan(rendered_pages):
    for body in rendered_pages["user"]:
        parsed = parse_user_page(body)
        assert parsed is not None
        assert parsed == parse_user_page(_full_scan(body))


def test_discussion_pages_match_full_scan(rendered_pages):
    seen_comments = 0
    for body in rendered_pages["discussion"]:
        url, comments = parse_comment_page(body)
        assert url is not None
        assert (url, comments) == parse_comment_page(_full_scan(body))
        assert parse_comments(body) == parse_comments(_full_scan(body))
        seen_comments += len(comments)
    assert seen_comments > 0


def test_single_comment_pages_match_full_scan(rendered_pages):
    blobs = 0
    for body in rendered_pages["comment"]:
        assert parse_comments(body) == parse_comments(_full_scan(body))
        blob = parse_comment_author_blob(body)
        assert blob == parse_comment_author_blob(_full_scan(body))
        blobs += blob is not None
    assert blobs > 0


def test_youtube_pages_match_full_scan(rendered_pages):
    for body in rendered_pages["youtube"]:
        item = parse_youtube_page("https://youtube.com/x", body)
        assert item is not None
        assert item == parse_youtube_page("https://youtube.com/x", _full_scan(body))


def test_page_without_body_tag_is_scanned_from_zero():
    fragment = (
        '<h1 class="display-name">Ann &amp; Co</h1>\n'
        '<span class="username">@ann</span>\n'
        f'<meta name="author-id" content="{"a" * 24}">\n'
        '<p class="bio">hi</p>\n'
        f'<li class="commented-url"><a href="/discussion/{"b" * 24}">x</a></li>'
    )
    user = parse_user_page(fragment)
    assert user is not None
    assert (user.username, user.display_name, user.bio) == ("ann", "Ann & Co", "hi")
    assert user.commented_url_ids == ["b" * 24]
    discussion = (
        f'<meta name="commenturl-id" content="{"c" * 24}">\n'
        '<span class="votes" data-up="4" data-down="1"></span>\n'
        f'<div class="comment" data-comment-id="{"d" * 24}" '
        f'data-author-id="{"a" * 24}" data-parent-id="" data-created="7">\n'
        '<p class="comment-text">first</p>\n</div>'
    )
    url, comments = parse_comment_page(discussion)
    assert url is not None and (url.upvotes, url.downvotes) == (4, 1)
    assert [(c.text, c.commenturl_id) for c in comments] == [("first", "c" * 24)]


def test_markup_before_body_is_not_parsed():
    # The contract: nothing a parser extracts lives in <head>.
    head_only = (
        '<html><head><span class="username">@ghost</span>'
        f'<meta name="author-id" content="{"e" * 24}"></head>'
        "<body><p>nothing here</p></body></html>"
    )
    assert parse_user_page(head_only) is None
