"""HTTP substrate: messages, parser, protocol semantics, file population."""

from .files import FilePopulation
from .messages import Request, Response
from .parser import ParsedRequest, ParseError, RequestParser, render_response_head
from .protocol import HttpSemantics

__all__ = [
    "FilePopulation",
    "Request",
    "Response",
    "ParsedRequest",
    "ParseError",
    "RequestParser",
    "render_response_head",
    "HttpSemantics",
]
