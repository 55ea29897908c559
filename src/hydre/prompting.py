"""Prompt rendering and response parsing.

A rendered prompt has four sections in fixed order, separated by single
blank lines:

  1. the task instruction,
  2. the relation list, one ``name : definition`` per line, NA last: the
     whole ontology, or only the selection's candidates when its
     ``relation_scope`` is ``candidates_only``,
  3. one block per exemplar of the selection, ``Input: ...`` (its
     sentences) / ``Output: ...`` (its labels in ontology order, NA last,
     one per line),
  4. the query block ``Input: ...\\nOutput:`` with no trailing answer.

Entity mentions are wrapped in marker tags injected exactly at the span
boundaries, so stripping the four tag strings reproduces the original
sentence byte for byte. Rendering is pure: identical inputs produce
identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import QueryInstance, RelationOntology, SentenceInstance
from .selection import Exemplar, ExemplarSet

DEFAULT_TASK_INSTRUCTION = (
    "Choose all applicable relations between head and tail entities from the "
    "set below. Print each relation in a new line. If none of the relations "
    "are applicable, output 'NA'."
)
DEFAULT_NA_DEFINITION = "no relation from the set exists between the given entity pair"


class PromptError(ValueError):
    """A prompt cannot be rendered from the given inputs."""


@dataclass(frozen=True)
class PromptTemplate:
    task_instruction: str = DEFAULT_TASK_INSTRUCTION
    include_definitions: bool = True
    head_open: str = "<Head>"
    head_close: str = "</Head>"
    tail_open: str = "<Tail>"
    tail_close: str = "</Tail>"
    na_definition: str = DEFAULT_NA_DEFINITION

    def __post_init__(self) -> None:
        tags = (self.head_open, self.head_close, self.tail_open, self.tail_close)
        if any(not t for t in tags):
            raise PromptError("marker tags must be nonempty")
        if len(set(tags)) != 4:
            raise PromptError("marker tags must be mutually distinct")


@dataclass(frozen=True)
class ParsedPrediction:
    """Relations recovered from a raw response; empty set encodes NA."""

    relations: frozenset[str]

    @property
    def is_na(self) -> bool:
        return not self.relations


def tag_entities(
    sentence: SentenceInstance | QueryInstance, template: PromptTemplate
) -> str:
    """Inject head/tail marker tags at the span boundaries."""
    head, tail = sentence.head, sentence.tail
    if head.start < tail.end and tail.start < head.end:
        raise PromptError("overlapping head/tail spans cannot be tagged")
    text = sentence.text
    # insert the later span first so earlier offsets stay valid
    spans = sorted(
        [
            (head.start, head.end, template.head_open, template.head_close),
            (tail.start, tail.end, template.tail_open, template.tail_close),
        ],
        reverse=True,
    )
    for start, end, open_tag, close_tag in spans:
        text = text[:start] + open_tag + text[start:end] + close_tag + text[end:]
    return text


def _relation_lines(
    selection: ExemplarSet, ontology: RelationOntology, template: PromptTemplate
) -> list[str]:
    if selection.relation_scope == "candidates_only":
        if not selection.candidates:
            raise PromptError("candidates_only scope requires a candidate list")
        candidates = {name for name, _ in selection.candidates}
        for name, _ in selection.candidates:
            if name not in ontology:
                raise PromptError(f"candidate {name!r} not in ontology")
        names = [n for n in ontology.names if n in candidates]
    else:
        names = list(ontology.names)
    lines = []
    for name in names:
        if template.include_definitions:
            lines.append(f"{name} : {ontology.definition_of(name)}")
        else:
            lines.append(name)
    if template.include_definitions:
        lines.append(f"{ontology.na_symbol} : {template.na_definition}")
    else:
        lines.append(ontology.na_symbol)
    return lines


def _render_exemplar(
    exemplar: Exemplar, ontology: RelationOntology, template: PromptTemplate
) -> str:
    if not exemplar.sentences:
        raise PromptError("exemplar block with no sentences")
    if not exemplar.labels:
        raise PromptError("exemplar block with no labels")
    for label in sorted(exemplar.labels):
        if label != ontology.na_symbol and label not in ontology:
            raise PromptError(f"unknown relation {label!r}")
    passage = " ".join(tag_entities(s, template) for s in exemplar.sentences)
    labels = ontology.sorted_labels(exemplar.labels)
    return f"Input: {passage}\nOutput: " + "\n".join(labels)


def render_prompt(
    query: QueryInstance | SentenceInstance,
    selection: ExemplarSet,
    ontology: RelationOntology,
    template: PromptTemplate,
) -> str:
    """Render the query's prompt from its selection; see the module
    docstring for the layout."""
    sections = [template.task_instruction]
    sections.append("\n".join(_relation_lines(selection, ontology, template)))
    for exemplar in selection.exemplars:
        sections.append(_render_exemplar(exemplar, ontology, template))
    sections.append(f"Input: {tag_entities(query, template)}\nOutput:")
    return "\n\n".join(sections)


def parse_response(raw: str, ontology: RelationOntology) -> ParsedPrediction:
    """Recover predicted relations from arbitrary response text.

    A relation is predicted iff its exact full name occurs in the response:
    names containing '/' are found by substring scan, other names (and the
    NA symbol) must appear as whitespace-delimited tokens. If NA matches
    alongside relations it is dropped; if nothing matches the prediction is
    NA (empty set). Parsing never fails.
    """
    tokens = set(raw.split())
    hits: set[str] = set()
    for name in ontology.names:
        if "/" in name:
            if name in raw:
                hits.add(name)
        elif name in tokens:
            hits.add(name)
    return ParsedPrediction(frozenset(hits))
