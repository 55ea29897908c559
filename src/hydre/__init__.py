"""HYDRE: hybrid exemplar selection for bag-supervised relation extraction.

A trained bag-level model ranks candidate relations for each query; for
every candidate the most relevant training bag is retrieved by combined
semantic similarity and model confidence, and its most representative
sentence becomes an in-context exemplar for an LLM judge.
"""

__version__ = "0.1.0"

from .corpus import (
    Bag,
    Corpus,
    CorpusError,
    EntitySpan,
    QueryInstance,
    RelationOntology,
    SentenceInstance,
    builtin_ontology_path,
    load_bags,
    load_ontology,
    load_queries,
)
from .providers import (
    EmbeddingIndex,
    ProviderError,
    ScoreMatrix,
    ScoringConfig,
)
from .selection import (
    CorpusView,
    Exemplar,
    ExemplarSet,
    NoBagForRelation,
    build_exemplar_set,
    combined_bag_scores,
    reduce_bag,
    select_bag,
    select_candidates,
    select_sentence,
)
from .baselines import (
    flatten,
    mmr_select,
    random_k,
    topk_sim,
)
from .prompting import (
    ParsedPrediction,
    PromptTemplate,
    parse_response,
    render_prompt,
)
from .judge import (
    GenerationParams,
    PromptTooLong,
    ReplayCache,
    ReplayMiss,
    generate,
    run_batch,
    run_passes,
)
from .evaluation import (
    EvalReport,
    FactSet,
    confusion_pairs,
    mcnemar,
    recall_at_k,
    score,
)
