"""Dynamic-epistemic-logic planning: model checking, product update, and
sequential/strong-policy search over multi-agent Kripke models."""

from .actions import (
    EdgeGuard,
    EpistemicAction,
    Event,
    applicable,
    induced_action,
    local_action,
    make_ask,
    product_update,
)
from .classical import (
    ActionSchema,
    ConditionalAction,
    GroundAction,
    PropositionalTask,
    SchemaAtom,
    SchemaLiterals,
    apply_belief,
    apply_ground,
    ground,
    reachable_system,
    solve_classical,
)
from .dsl import (
    ParsedDocument,
    export_dot,
    parse_formula,
    parse_task,
    render_state,
    render_state_line,
    serialize_task,
)
from .errors import (
    ConsistencyError,
    Diagnostic,
    EplanError,
    ModelError,
    NotApplicableError,
    TaskParseError,
    VocabularyError,
    VocabularyMismatchError,
)
from .logic import (
    Agent,
    And,
    Atom,
    Bottom,
    Common,
    Formula,
    Knows,
    LiteralConjunction,
    Not,
    Or,
    Prop,
    Top,
    TOP,
    BOTTOM,
    Vocabulary,
    and_all,
    eval_state,
    eval_world,
    render_formula,
)
from .models import (
    BeliefState,
    EpistemicModel,
    EpistemicState,
    bisim_contract,
    canonical_key,
    from_belief_state,
    globals_of,
    is_local_for,
    local_state,
    to_belief_state,
)
from .planner import (
    EpistemicTask,
    Execution,
    PlanReport,
    Policy,
    PolicyReport,
    SequentialPlan,
    Violation,
    enumerate_executions,
    execute,
    localize,
    solve_policy,
    solve_sequential,
    validate_plan,
    validate_policy,
)

__version__ = "0.1.0"
