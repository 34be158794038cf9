"""Recursive-descent parser for minilang.

Grammar sketch::

    program   := funcdef*
    funcdef   := type IDENT '(' [param (',' param)*] ')' block
    block     := '{' stmt* '}'
    stmt      := vardecl ';' | simple ';' | if | while | for | return ';'
               | break ';' | continue ';' | block | omp
    omp       := '#' 'pragma' 'omp' directive clauses NEWLINE [stmt]

OpenMP directives understood: ``parallel``, ``single``, ``master``,
``critical``, ``barrier``, ``for``, ``sections``/``section``, ``task`` and the
combined ``parallel for``.  Clauses: ``num_threads(e)``, ``private(ids)``,
``shared(ids)``, ``nowait``, ``schedule(kind)``.

Nesting bound: the ``Program`` node sits at depth 1, every other node one
level below its parent, and a parenthesized expression one level below its
context; each operator of a left-associative chain (``a + b + c``) moves
the chain so far one level down.  A statement reaches two levels below its
own: the instrumentation may put a ``PARCOACH_*`` check beside it, whose
literal arguments sit there, so an instrumented program, printed, parses
again.  A node that sits, or a statement that reaches, deeper than
:data:`MAX_DEPTH` is a located :class:`ParseError`, so every recursive pass
over a parsed program (check, CFG, analyses, instrumentation, interpreter,
``pretty``, ``repr``, ``copy.deepcopy``) runs within Python's default
recursion limit.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as A
from .lexer import tokenize
from .tokens import Token, TokenType

#: The deepest level at which the parser builds a node (see above).
MAX_DEPTH = 100


class ParseError(Exception):
    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{token.line}:{token.col}: {message} (got {token.type.name} {token.value!r})")
        self.message = message
        self.token = token


def _too_deep(token: Token) -> ParseError:
    return ParseError(f"program nests deeper than {MAX_DEPTH} levels", token)


_TYPE_TOKENS = {
    TokenType.KW_INT: "int",
    TokenType.KW_FLOAT: "float",
    TokenType.KW_BOOL: "bool",
    TokenType.KW_VOID: "void",
}

_ASSIGN_OPS = {
    TokenType.ASSIGN: "=",
    TokenType.PLUSEQ: "+=",
    TokenType.MINUSEQ: "-=",
    TokenType.STAREQ: "*=",
    TokenType.SLASHEQ: "/=",
}

#: Binary operators by precedence, loosest first; all are left-associative.
_BINARY = {
    TokenType.OR: 1,
    TokenType.AND: 2,
    TokenType.EQ: 3, TokenType.NE: 3,
    TokenType.LT: 4, TokenType.GT: 4, TokenType.LE: 4, TokenType.GE: 4,
    TokenType.PLUS: 5, TokenType.MINUS: 5,
    TokenType.STAR: 6, TokenType.SLASH: 6, TokenType.PERCENT: 6,
}

#: Prefix operators; ``+`` builds no node.
_PREFIX = {TokenType.MINUS, TokenType.NOT, TokenType.PLUS}

# What ``Parser._operand``, the parser's hottest method, compares against.
_PLUS = TokenType.PLUS
_IDENT = TokenType.IDENT
_INT = TokenType.INT
_LPAREN = TokenType.LPAREN
_RPAREN = TokenType.RPAREN
_FLOAT = TokenType.FLOAT
_STRING = TokenType.STRING
_TRUE = TokenType.KW_TRUE
_FALSE = TokenType.KW_FALSE
_COMMA = TokenType.COMMA
_LBRACKET = TokenType.LBRACKET
_RBRACKET = TokenType.RBRACKET
_VarRef = A.VarRef


def _parallel(body: A.Block, clauses: dict, line: int, col: int) -> A.OmpParallel:
    return A.OmpParallel(
        body=body, num_threads=clauses.get("num_threads"),
        private=clauses.get("private", []), shared=clauses.get("shared", []),
        line=line, col=col,
    )


class Parser:
    def __init__(self, tokens: List[Token], filename: str = "<string>") -> None:
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        #: The deepest level reached by the expression parsed last.
        self.deep = 0

    # -- token helpers ------------------------------------------------------

    # The token list ends with EOF, and nothing advances past it: every
    # step past a token follows a check that it is something else.

    def _match(self, ttype: TokenType) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.type is ttype:
            self.pos += 1
            return tok
        return None

    def _expect(self, ttype: TokenType, what: str = "") -> Token:
        tok = self.tokens[self.pos]
        if tok.type is ttype:
            self.pos += 1
            return tok
        raise ParseError(what or f"expected {ttype.value!r}", tok)

    # -- program / functions -------------------------------------------------

    def parse_program(self) -> A.Program:
        funcs: List[A.FuncDef] = []
        first = self.tokens[self.pos]
        while self.tokens[self.pos].type is not TokenType.EOF:
            funcs.append(self.parse_funcdef())
        return A.Program(funcs=funcs, filename=self.filename, line=first.line, col=first.col)

    def parse_funcdef(self) -> A.FuncDef:
        start = self.tokens[self.pos]
        if start.type not in _TYPE_TOKENS:
            raise ParseError("expected a type to start a function definition", start)
        self.pos += 1
        ret_type = _TYPE_TOKENS[start.type]
        name = self._expect(TokenType.IDENT, "expected function name").value
        self._expect(TokenType.LPAREN)
        params: List[A.Param] = []
        if self.tokens[self.pos].type is not TokenType.RPAREN:
            while True:
                ptok = self.tokens[self.pos]
                if ptok.type not in _TYPE_TOKENS:
                    raise ParseError("expected parameter type", ptok)
                self.pos += 1
                ptype = _TYPE_TOKENS[ptok.type]
                pname = self._expect(TokenType.IDENT, "expected parameter name").value
                params.append(A.Param(type_name=ptype, name=pname, line=ptok.line, col=ptok.col))
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN)
        body = self.parse_block(3)
        return A.FuncDef(
            ret_type=ret_type, name=name, params=params, body=body,
            line=start.line, col=start.col,
        )

    # -- statements -----------------------------------------------------------

    # Each statement method takes the ``level`` its node sits at.  Depth is
    # checked at every statement, body block and sections construct, each
    # reaching two levels below its own: a for header's declaration or
    # assignment always has the body beside it.

    def parse_block(self, level: int) -> A.Block:
        lb = self._expect(TokenType.LBRACE, "expected '{'")
        tokens = self.tokens
        stmts: List[A.Stmt] = []
        while True:
            kind = tokens[self.pos].type
            if kind is TokenType.RBRACE:
                break
            if kind is TokenType.EOF:
                raise ParseError("unterminated block", tokens[self.pos])
            stmts.append(self.parse_stmt(level + 1))
        self.pos += 1
        return A.Block(stmts=stmts, line=lb.line, col=lb.col)

    def _stmt_or_block(self, level: int) -> A.Block:
        """Parse a statement; wrap a bare statement into a Block."""
        if level + 2 > MAX_DEPTH:
            raise _too_deep(self.tokens[self.pos])
        if self.tokens[self.pos].type is TokenType.LBRACE:
            return self.parse_block(level)
        stmt = self.parse_stmt(level + 1)
        return A.Block(stmts=[stmt], line=stmt.line, col=stmt.col)

    def parse_stmt(self, level: int) -> A.Stmt:
        tok = self.tokens[self.pos]
        if level + 2 > MAX_DEPTH:
            raise _too_deep(tok)
        kind = tok.type
        if kind is TokenType.HASH:
            return self.parse_pragma(level)
        if kind in _TYPE_TOKENS:
            decl = self.parse_vardecl(level)
            self._expect(TokenType.SEMI, "expected ';' after declaration")
            return decl
        if kind is TokenType.KW_IF:
            return self.parse_if(level)
        if kind is TokenType.KW_WHILE:
            return self.parse_while(level)
        if kind is TokenType.KW_FOR:
            return self.parse_for(level)
        if kind is TokenType.KW_RETURN:
            self.pos += 1
            value = None
            if self.tokens[self.pos].type is not TokenType.SEMI:
                value = self.parse_expr(level + 1)
            self._expect(TokenType.SEMI, "expected ';' after return")
            return A.Return(value=value, line=tok.line, col=tok.col)
        if kind is TokenType.KW_BREAK or kind is TokenType.KW_CONTINUE:
            self.pos += 1
            self._expect(TokenType.SEMI)
            jump = A.Break if kind is TokenType.KW_BREAK else A.Continue
            return jump(line=tok.line, col=tok.col)
        if kind is TokenType.LBRACE:
            return self.parse_block(level)
        stmt = self.parse_simple_stmt(level)
        self._expect(TokenType.SEMI, "expected ';'")
        return stmt

    def parse_vardecl(self, level: int) -> A.VarDecl:
        tok = self.tokens[self.pos]
        self.pos += 1
        type_name = _TYPE_TOKENS[tok.type]
        name = self._expect(TokenType.IDENT, "expected variable name").value
        array_size = None
        if self._match(TokenType.LBRACKET):
            array_size = self.parse_expr(level + 1)
            self._expect(TokenType.RBRACKET)
        init = None
        if self._match(TokenType.ASSIGN):
            init = self.parse_expr(level + 1)
        return A.VarDecl(
            type_name=type_name, name=name, init=init, array_size=array_size,
            line=tok.line, col=tok.col,
        )

    def parse_simple_stmt(self, level: int) -> A.Stmt:
        """Assignment, increment, or expression-statement (typically a call)."""
        tok = self.tokens[self.pos]
        expr = self.parse_expr(level + 1)
        nxt = self.tokens[self.pos]
        if nxt.type in _ASSIGN_OPS:
            if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                raise ParseError("assignment target must be a variable or array element", nxt)
            self.pos += 1
            op = _ASSIGN_OPS[nxt.type]
            value = self.parse_expr(level + 1)
            return A.Assign(target=expr, op=op, value=value, line=tok.line, col=tok.col)
        if nxt.type is TokenType.PLUSPLUS or nxt.type is TokenType.MINUSMINUS:
            if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                raise ParseError("increment target must be a variable or array element", nxt)
            self.pos += 1
            op = "+=" if nxt.type is TokenType.PLUSPLUS else "-="
            return A.Assign(
                target=expr, op=op, value=A.IntLit(value=1, line=nxt.line, col=nxt.col),
                line=tok.line, col=tok.col,
            )
        return A.ExprStmt(expr=expr, line=tok.line, col=tok.col)

    def parse_if(self, level: int) -> A.If:
        tok = self._expect(TokenType.KW_IF)
        self._expect(TokenType.LPAREN)
        cond = self.parse_expr(level + 1)
        self._expect(TokenType.RPAREN)
        then_body = self._stmt_or_block(level + 1)
        else_body = None
        if self._match(TokenType.KW_ELSE):
            else_body = self._stmt_or_block(level + 1)
        return A.If(cond=cond, then_body=then_body, else_body=else_body,
                    line=tok.line, col=tok.col)

    def parse_while(self, level: int) -> A.While:
        tok = self._expect(TokenType.KW_WHILE)
        self._expect(TokenType.LPAREN)
        cond = self.parse_expr(level + 1)
        self._expect(TokenType.RPAREN)
        body = self._stmt_or_block(level + 1)
        return A.While(cond=cond, body=body, line=tok.line, col=tok.col)

    def parse_for(self, level: int) -> A.For:
        tok = self._expect(TokenType.KW_FOR)
        self._expect(TokenType.LPAREN)
        init: Optional[A.Stmt] = None
        kind = self.tokens[self.pos].type
        if kind is not TokenType.SEMI:
            if kind in _TYPE_TOKENS:
                init = self.parse_vardecl(level + 1)
            else:
                init = self.parse_simple_stmt(level + 1)
        self._expect(TokenType.SEMI, "expected ';' in for")
        cond = None
        if self.tokens[self.pos].type is not TokenType.SEMI:
            cond = self.parse_expr(level + 1)
        self._expect(TokenType.SEMI, "expected second ';' in for")
        step: Optional[A.Stmt] = None
        if self.tokens[self.pos].type is not TokenType.RPAREN:
            step = self.parse_simple_stmt(level + 1)
        self._expect(TokenType.RPAREN)
        body = self._stmt_or_block(level + 1)
        return A.For(init=init, cond=cond, step=step, body=body,
                     line=tok.line, col=tok.col)

    # -- OpenMP pragmas -------------------------------------------------------

    def parse_pragma(self, level: int) -> A.Stmt:
        hash_tok = self._expect(TokenType.HASH)
        self._expect(TokenType.KW_PRAGMA, "expected 'pragma' after '#'")
        omp = self._expect(TokenType.IDENT, "expected 'omp'")
        if omp.value != "omp":
            raise ParseError("only 'omp' pragmas are supported", omp)
        directive = self.tokens[self.pos]
        if directive.type is not TokenType.IDENT and directive.type is not TokenType.KW_FOR:
            raise ParseError("expected an OpenMP directive", directive)
        self.pos += 1
        name = "for" if directive.type is TokenType.KW_FOR else directive.value
        if name == "parallel" and self._match(TokenType.KW_FOR):
            name = "parallel for"
        nxt = self.tokens[self.pos]
        if name == "parallel" and nxt.type is TokenType.IDENT and nxt.value == "sections":
            self.pos += 1
            name = "parallel sections"

        clauses = self._parse_clauses(level + 1)
        self._expect(TokenType.NEWLINE, "expected end of pragma line")

        line, col = hash_tok.line, hash_tok.col
        nowait = clauses.get("nowait", False)
        if name == "barrier":
            return A.OmpBarrier(line=line, col=col)
        if name in ("parallel", "single", "master", "critical", "task"):
            body = self._stmt_or_block(level + 1)
            if name == "parallel":
                return _parallel(body, clauses, line, col)
            if name == "single":
                return A.OmpSingle(body=body, nowait=nowait, line=line, col=col)
            if name == "master":
                return A.OmpMaster(body=body, line=line, col=col)
            if name == "critical":
                return A.OmpCritical(body=body, name=clauses.get("critical_name", ""),
                                     line=line, col=col)
            return A.OmpTask(body=body, line=line, col=col)
        if name == "for" or name == "parallel for":
            # parallel for: OmpParallel > Block > OmpFor > For
            loop = self.parse_for(level + (1 if name == "for" else 3))
            omp_for = A.OmpFor(loop=loop, nowait=nowait and name == "for",
                               schedule=clauses.get("schedule", "static"),
                               line=line, col=col)
            if name == "for":
                return omp_for
            return _parallel(A.Block(stmts=[omp_for], line=line, col=col),
                             clauses, line, col)
        if name == "sections":
            sections = self._parse_sections_body(level)
            return A.OmpSections(sections=sections, nowait=nowait, line=line, col=col)
        if name == "parallel sections":
            # OmpParallel > Block > OmpSections
            sections = self._parse_sections_body(level + 2)
            inner = A.OmpSections(sections=sections, line=line, col=col)
            return _parallel(A.Block(stmts=[inner], line=line, col=col),
                             clauses, line, col)
        raise ParseError(f"unknown OpenMP directive {name!r}", directive)

    def _parse_sections_body(self, level: int) -> List[A.Block]:
        """The section blocks of a sections construct at ``level``."""
        lb = self._expect(TokenType.LBRACE, "sections construct requires a '{' block")
        if level + 2 > MAX_DEPTH:
            raise _too_deep(lb)
        sections: List[A.Block] = []
        while self.tokens[self.pos].type is not TokenType.RBRACE:
            self._expect(TokenType.HASH, "expected '#pragma omp section'")
            self._expect(TokenType.KW_PRAGMA)
            omp = self._expect(TokenType.IDENT)
            if omp.value != "omp":
                raise ParseError("expected 'omp'", omp)
            sec = self._expect(TokenType.IDENT)
            if sec.value != "section":
                raise ParseError("expected 'section' inside sections", sec)
            self._expect(TokenType.NEWLINE)
            sections.append(self._stmt_or_block(level + 1))
        self.pos += 1
        return sections

    def _parse_clauses(self, level: int) -> dict:
        """The clauses of a directive; expressions in them sit at ``level``."""
        clauses: dict = {}
        while True:
            tok = self.tokens[self.pos]
            if tok.type is TokenType.LPAREN:
                # critical(name) — the name comes as a parenthesised ident.
                self.pos += 1
                cname = self._expect(TokenType.IDENT, "expected critical section name").value
                self._expect(TokenType.RPAREN)
                clauses["critical_name"] = cname
                continue
            if tok.type is not TokenType.IDENT:
                return clauses
            self.pos += 1
            clause = tok.value
            if clause == "nowait":
                clauses["nowait"] = True
            elif clause == "num_threads":
                self._expect(TokenType.LPAREN)
                clauses["num_threads"] = self.parse_expr(level)
                self._expect(TokenType.RPAREN)
            elif clause in ("private", "shared", "firstprivate"):
                self._expect(TokenType.LPAREN)
                names = [self._expect(TokenType.IDENT).value]
                while self._match(TokenType.COMMA):
                    names.append(self._expect(TokenType.IDENT).value)
                self._expect(TokenType.RPAREN)
                key = "private" if clause == "firstprivate" else clause
                clauses.setdefault(key, []).extend(names)
            elif clause == "schedule":
                self._expect(TokenType.LPAREN)
                kind = self._expect(TokenType.IDENT).value
                if self._match(TokenType.COMMA):
                    self.parse_expr(level)  # chunk size accepted, ignored
                self._expect(TokenType.RPAREN)
                clauses["schedule"] = kind
            elif clause == "default":
                self._expect(TokenType.LPAREN)
                self._expect(TokenType.IDENT)
                self._expect(TokenType.RPAREN)
            else:
                raise ParseError(f"unknown OpenMP clause {clause!r}", self.tokens[self.pos])

    # -- expressions ------------------------------------------------------------

    def parse_expr(self, level: int, min_prec: int = 1) -> A.Expr:
        """Parse an expression whose root sits at ``level``.

        Precedence climbing over ``_BINARY``: operands and operators are
        consumed, and nodes built, in the same order as a recursive-descent
        ladder with one function per precedence level."""
        left = self._operand(level)
        deep = self.deep
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            prec = _BINARY.get(tok.type, 0)
            if prec < min_prec:
                self.deep = deep
                return left
            self.pos += 1
            right = self.parse_expr(level + 1, prec + 1)
            # The new node takes ``level``: the chain so far moves down one.
            deep += 1
            if deep < self.deep:
                deep = self.deep
            elif deep > MAX_DEPTH:
                raise _too_deep(tok)
            left = A.BinOp(op=tok.value, left=left, right=right, line=tok.line, col=tok.col)

    def _operand(self, level: int) -> A.Expr:
        """Prefix operators, a primary, and at most one postfix call or
        index on a (parenthesized) name; the root sits at ``level``."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        prefixes = None
        while tok.type in _PREFIX:
            if tok.type is not _PLUS:
                if prefixes is None:
                    prefixes = [tok]
                else:
                    prefixes.append(tok)
                level += 1
            pos += 1
            tok = tokens[pos]
        if level > MAX_DEPTH:
            raise _too_deep(tok)
        self.pos = pos + 1
        deep = level
        kind = tok.type
        if kind is _IDENT:
            node = _VarRef(name=tok.value, line=tok.line, col=tok.col)
        elif kind is _INT:
            node = A.IntLit(value=int(tok.value), line=tok.line, col=tok.col)
        elif kind is _LPAREN:
            node = self.parse_expr(level + 1)
            deep = self.deep
            self._expect(_RPAREN)
        elif kind is _FLOAT:
            node = A.FloatLit(value=float(tok.value), line=tok.line, col=tok.col)
        elif kind is _STRING:
            node = A.StringLit(value=tok.value, line=tok.line, col=tok.col)
        elif kind is _TRUE:
            node = A.BoolLit(value=True, line=tok.line, col=tok.col)
        elif kind is _FALSE:
            node = A.BoolLit(value=False, line=tok.line, col=tok.col)
        else:
            raise ParseError("expected an expression", tok)
        if type(node) is _VarRef:
            kind = tokens[self.pos].type
            if kind is _LPAREN:
                # The callee's VarRef is dropped (its uid stays unused).
                self.pos += 1
                args: List[A.Expr] = []
                if tokens[self.pos].type is not _RPAREN:
                    while True:
                        args.append(self.parse_expr(level + 1))
                        if self.deep > deep:
                            deep = self.deep
                        if tokens[self.pos].type is not _COMMA:
                            break
                        self.pos += 1
                self._expect(_RPAREN)
                node = A.Call(name=node.name, args=args, line=node.line, col=node.col)
            elif kind is _LBRACKET:
                self.pos += 1
                index = self.parse_expr(level + 1)
                if self.deep > deep:
                    deep = self.deep
                self._expect(_RBRACKET)
                node = A.ArrayRef(name=node.name, index=index, line=node.line, col=node.col)
        if prefixes is not None:
            for tok in reversed(prefixes):
                node = A.UnaryOp(op=tok.value, operand=node, line=tok.line, col=tok.col)
        self.deep = deep
        return node


def parse_program(source: str, filename: str = "<string>") -> A.Program:
    """Parse minilang source text into a :class:`~repro.minilang.ast_nodes.Program`."""
    return Parser(tokenize(source, filename), filename).parse_program()


def parse_function(source: str, filename: str = "<string>") -> A.FuncDef:
    """Parse a single function definition (convenience for tests)."""
    prog = parse_program(source, filename)
    if len(prog.funcs) != 1:
        raise ValueError(f"expected exactly one function, got {len(prog.funcs)}")
    return prog.funcs[0]
