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
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as A
from .lexer import tokenize
from .tokens import Token, TokenType


class ParseError(Exception):
    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{token.line}:{token.col}: {message} (got {token.type.name} {token.value!r})")
        self.message = message
        self.token = token


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


class Parser:
    def __init__(self, tokens: List[Token], filename: str = "<string>") -> None:
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    # -- token helpers ------------------------------------------------------

    # The token list ends with EOF, and nothing advances past it: every
    # ``_advance`` follows a check that the current token is something else.

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _check(self, ttype: TokenType) -> bool:
        return self.tokens[self.pos].type is ttype

    def _match(self, *ttypes: TokenType) -> Optional[Token]:
        if self.tokens[self.pos].type in ttypes:
            return self._advance()
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
        first = self._peek()
        while not self._check(TokenType.EOF):
            funcs.append(self.parse_funcdef())
        return A.Program(funcs=funcs, filename=self.filename, line=first.line, col=first.col)

    def parse_funcdef(self) -> A.FuncDef:
        start = self._peek()
        if start.type not in _TYPE_TOKENS:
            raise ParseError("expected a type to start a function definition", start)
        ret_type = _TYPE_TOKENS[self._advance().type]
        name = self._expect(TokenType.IDENT, "expected function name").value
        self._expect(TokenType.LPAREN)
        params: List[A.Param] = []
        if not self._check(TokenType.RPAREN):
            while True:
                ptok = self._peek()
                if ptok.type not in _TYPE_TOKENS:
                    raise ParseError("expected parameter type", ptok)
                ptype = _TYPE_TOKENS[self._advance().type]
                pname = self._expect(TokenType.IDENT, "expected parameter name").value
                params.append(A.Param(type_name=ptype, name=pname, line=ptok.line, col=ptok.col))
                if not self._match(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN)
        body = self.parse_block()
        return A.FuncDef(
            ret_type=ret_type, name=name, params=params, body=body,
            line=start.line, col=start.col,
        )

    # -- statements -----------------------------------------------------------

    def parse_block(self) -> A.Block:
        lb = self._expect(TokenType.LBRACE, "expected '{'")
        stmts: List[A.Stmt] = []
        while not self._check(TokenType.RBRACE):
            if self._check(TokenType.EOF):
                raise ParseError("unterminated block", self._peek())
            stmts.append(self.parse_stmt())
        self._expect(TokenType.RBRACE)
        return A.Block(stmts=stmts, line=lb.line, col=lb.col)

    def _stmt_or_block(self) -> A.Block:
        """Parse a statement; wrap a bare statement into a Block."""
        if self._check(TokenType.LBRACE):
            return self.parse_block()
        stmt = self.parse_stmt()
        return A.Block(stmts=[stmt], line=stmt.line, col=stmt.col)

    def parse_stmt(self) -> A.Stmt:
        tok = self._peek()
        if tok.type is TokenType.HASH:
            return self.parse_pragma()
        if tok.type in _TYPE_TOKENS:
            decl = self.parse_vardecl()
            self._expect(TokenType.SEMI, "expected ';' after declaration")
            return decl
        if tok.type is TokenType.KW_IF:
            return self.parse_if()
        if tok.type is TokenType.KW_WHILE:
            return self.parse_while()
        if tok.type is TokenType.KW_FOR:
            return self.parse_for()
        if tok.type is TokenType.KW_RETURN:
            self._advance()
            value = None
            if not self._check(TokenType.SEMI):
                value = self.parse_expr()
            self._expect(TokenType.SEMI, "expected ';' after return")
            return A.Return(value=value, line=tok.line, col=tok.col)
        if tok.type is TokenType.KW_BREAK:
            self._advance()
            self._expect(TokenType.SEMI)
            return A.Break(line=tok.line, col=tok.col)
        if tok.type is TokenType.KW_CONTINUE:
            self._advance()
            self._expect(TokenType.SEMI)
            return A.Continue(line=tok.line, col=tok.col)
        if tok.type is TokenType.LBRACE:
            return self.parse_block()
        stmt = self.parse_simple_stmt()
        self._expect(TokenType.SEMI, "expected ';'")
        return stmt

    def parse_vardecl(self) -> A.VarDecl:
        tok = self._peek()
        type_name = _TYPE_TOKENS[self._advance().type]
        name = self._expect(TokenType.IDENT, "expected variable name").value
        array_size = None
        if self._match(TokenType.LBRACKET):
            array_size = self.parse_expr()
            self._expect(TokenType.RBRACKET)
        init = None
        if self._match(TokenType.ASSIGN):
            init = self.parse_expr()
        return A.VarDecl(
            type_name=type_name, name=name, init=init, array_size=array_size,
            line=tok.line, col=tok.col,
        )

    def parse_simple_stmt(self) -> A.Stmt:
        """Assignment, increment, or expression-statement (typically a call)."""
        tok = self._peek()
        expr = self.parse_expr()
        nxt = self._peek()
        if nxt.type in _ASSIGN_OPS:
            if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                raise ParseError("assignment target must be a variable or array element", nxt)
            op = _ASSIGN_OPS[self._advance().type]
            value = self.parse_expr()
            return A.Assign(target=expr, op=op, value=value, line=tok.line, col=tok.col)
        if nxt.type in (TokenType.PLUSPLUS, TokenType.MINUSMINUS):
            if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                raise ParseError("increment target must be a variable or array element", nxt)
            self._advance()
            op = "+=" if nxt.type is TokenType.PLUSPLUS else "-="
            return A.Assign(
                target=expr, op=op, value=A.IntLit(value=1, line=nxt.line, col=nxt.col),
                line=tok.line, col=tok.col,
            )
        return A.ExprStmt(expr=expr, line=tok.line, col=tok.col)

    def parse_if(self) -> A.If:
        tok = self._expect(TokenType.KW_IF)
        self._expect(TokenType.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenType.RPAREN)
        then_body = self._stmt_or_block()
        else_body = None
        if self._match(TokenType.KW_ELSE):
            else_body = self._stmt_or_block()
        return A.If(cond=cond, then_body=then_body, else_body=else_body,
                    line=tok.line, col=tok.col)

    def parse_while(self) -> A.While:
        tok = self._expect(TokenType.KW_WHILE)
        self._expect(TokenType.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenType.RPAREN)
        body = self._stmt_or_block()
        return A.While(cond=cond, body=body, line=tok.line, col=tok.col)

    def parse_for(self) -> A.For:
        tok = self._expect(TokenType.KW_FOR)
        self._expect(TokenType.LPAREN)
        init: Optional[A.Stmt] = None
        if not self._check(TokenType.SEMI):
            if self._peek().type in _TYPE_TOKENS:
                init = self.parse_vardecl()
            else:
                init = self.parse_simple_stmt()
        self._expect(TokenType.SEMI, "expected ';' in for")
        cond = None
        if not self._check(TokenType.SEMI):
            cond = self.parse_expr()
        self._expect(TokenType.SEMI, "expected second ';' in for")
        step: Optional[A.Stmt] = None
        if not self._check(TokenType.RPAREN):
            step = self.parse_simple_stmt()
        self._expect(TokenType.RPAREN)
        body = self._stmt_or_block()
        return A.For(init=init, cond=cond, step=step, body=body,
                     line=tok.line, col=tok.col)

    # -- OpenMP pragmas -------------------------------------------------------

    def parse_pragma(self) -> A.Stmt:
        hash_tok = self._expect(TokenType.HASH)
        self._expect(TokenType.KW_PRAGMA, "expected 'pragma' after '#'")
        omp = self._expect(TokenType.IDENT, "expected 'omp'")
        if omp.value != "omp":
            raise ParseError("only 'omp' pragmas are supported", omp)
        directive = self._peek()
        if directive.type in (TokenType.IDENT, TokenType.KW_FOR):
            self._advance()
        else:
            raise ParseError("expected an OpenMP directive", directive)
        name = "for" if directive.type is TokenType.KW_FOR else directive.value
        if name == "parallel" and self._check(TokenType.KW_FOR):
            self._advance()
            name = "parallel for"
        if name == "parallel" and self._check(TokenType.IDENT) and self._peek().value == "sections":
            self._advance()
            name = "parallel sections"

        clauses = self._parse_clauses()
        self._expect(TokenType.NEWLINE, "expected end of pragma line")

        line, col = hash_tok.line, hash_tok.col
        if name == "barrier":
            return A.OmpBarrier(line=line, col=col)
        if name == "parallel":
            body = self._stmt_or_block()
            return A.OmpParallel(
                body=body, num_threads=clauses.get("num_threads"),
                private=clauses.get("private", []), shared=clauses.get("shared", []),
                line=line, col=col,
            )
        if name == "single":
            body = self._stmt_or_block()
            return A.OmpSingle(body=body, nowait=clauses.get("nowait", False),
                               line=line, col=col)
        if name == "master":
            body = self._stmt_or_block()
            return A.OmpMaster(body=body, line=line, col=col)
        if name == "critical":
            body = self._stmt_or_block()
            return A.OmpCritical(body=body, name=clauses.get("critical_name", ""),
                                 line=line, col=col)
        if name == "task":
            body = self._stmt_or_block()
            return A.OmpTask(body=body, line=line, col=col)
        if name == "for":
            loop = self.parse_for()
            return A.OmpFor(loop=loop, nowait=clauses.get("nowait", False),
                            schedule=clauses.get("schedule", "static"),
                            line=line, col=col)
        if name == "parallel for":
            loop = self.parse_for()
            omp_for = A.OmpFor(loop=loop, schedule=clauses.get("schedule", "static"),
                               line=line, col=col)
            return A.OmpParallel(
                body=A.Block(stmts=[omp_for], line=line, col=col),
                num_threads=clauses.get("num_threads"),
                private=clauses.get("private", []), shared=clauses.get("shared", []),
                line=line, col=col,
            )
        if name == "sections":
            sections = self._parse_sections_body()
            return A.OmpSections(sections=sections, nowait=clauses.get("nowait", False),
                                 line=line, col=col)
        if name == "parallel sections":
            sections = self._parse_sections_body()
            inner = A.OmpSections(sections=sections, line=line, col=col)
            return A.OmpParallel(
                body=A.Block(stmts=[inner], line=line, col=col),
                num_threads=clauses.get("num_threads"),
                private=clauses.get("private", []), shared=clauses.get("shared", []),
                line=line, col=col,
            )
        raise ParseError(f"unknown OpenMP directive {name!r}", directive)

    def _parse_sections_body(self) -> List[A.Block]:
        self._expect(TokenType.LBRACE, "sections construct requires a '{' block")
        sections: List[A.Block] = []
        while not self._check(TokenType.RBRACE):
            hash_tok = self._expect(TokenType.HASH, "expected '#pragma omp section'")
            self._expect(TokenType.KW_PRAGMA)
            omp = self._expect(TokenType.IDENT)
            if omp.value != "omp":
                raise ParseError("expected 'omp'", omp)
            sec = self._expect(TokenType.IDENT)
            if sec.value != "section":
                raise ParseError("expected 'section' inside sections", sec)
            self._expect(TokenType.NEWLINE)
            sections.append(self._stmt_or_block())
        self._expect(TokenType.RBRACE)
        return sections

    def _parse_clauses(self) -> dict:
        clauses: dict = {}
        while self._check(TokenType.IDENT) or self._check(TokenType.LPAREN):
            if self._check(TokenType.LPAREN):
                # critical(name) — the name comes as a parenthesised ident.
                self._advance()
                cname = self._expect(TokenType.IDENT, "expected critical section name").value
                self._expect(TokenType.RPAREN)
                clauses["critical_name"] = cname
                continue
            clause = self._advance().value
            if clause == "nowait":
                clauses["nowait"] = True
            elif clause == "num_threads":
                self._expect(TokenType.LPAREN)
                clauses["num_threads"] = self.parse_expr()
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
                    self.parse_expr()  # chunk size accepted, ignored
                self._expect(TokenType.RPAREN)
                clauses["schedule"] = kind
            elif clause == "default":
                self._expect(TokenType.LPAREN)
                self._expect(TokenType.IDENT)
                self._expect(TokenType.RPAREN)
            else:
                raise ParseError(f"unknown OpenMP clause {clause!r}", self._peek())
        return clauses

    # -- expressions ------------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> A.Expr:
        """Precedence climbing over ``_BINARY``: operands and operators are
        consumed, and nodes built, in the same order as a recursive-descent
        ladder with one function per precedence level."""
        left = self._parse_unary()
        while True:
            tok = self.tokens[self.pos]
            prec = _BINARY.get(tok.type, 0)
            if prec < min_prec:
                return left
            self.pos += 1
            right = self.parse_expr(prec + 1)
            left = A.BinOp(op=tok.value, left=left, right=right, line=tok.line, col=tok.col)

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        if tok.type in (TokenType.MINUS, TokenType.NOT):
            self._advance()
            operand = self._parse_unary()
            return A.UnaryOp(op=tok.value, operand=operand, line=tok.line, col=tok.col)
        if tok.type is TokenType.PLUS:
            self._advance()
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            if self._check(TokenType.LPAREN) and isinstance(expr, A.VarRef):
                self._advance()
                args: List[A.Expr] = []
                if not self._check(TokenType.RPAREN):
                    args.append(self.parse_expr())
                    while self._match(TokenType.COMMA):
                        args.append(self.parse_expr())
                self._expect(TokenType.RPAREN)
                expr = A.Call(name=expr.name, args=args, line=expr.line, col=expr.col)
            elif self._check(TokenType.LBRACKET) and isinstance(expr, A.VarRef):
                self._advance()
                index = self.parse_expr()
                self._expect(TokenType.RBRACKET)
                expr = A.ArrayRef(name=expr.name, index=index, line=expr.line, col=expr.col)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._peek()
        if tok.type is TokenType.INT:
            self._advance()
            return A.IntLit(value=int(tok.value), line=tok.line, col=tok.col)
        if tok.type is TokenType.FLOAT:
            self._advance()
            return A.FloatLit(value=float(tok.value), line=tok.line, col=tok.col)
        if tok.type is TokenType.STRING:
            self._advance()
            return A.StringLit(value=tok.value, line=tok.line, col=tok.col)
        if tok.type is TokenType.KW_TRUE:
            self._advance()
            return A.BoolLit(value=True, line=tok.line, col=tok.col)
        if tok.type is TokenType.KW_FALSE:
            self._advance()
            return A.BoolLit(value=False, line=tok.line, col=tok.col)
        if tok.type is TokenType.IDENT:
            self._advance()
            return A.VarRef(name=tok.value, line=tok.line, col=tok.col)
        if tok.type is TokenType.LPAREN:
            self._advance()
            expr = self.parse_expr()
            self._expect(TokenType.RPAREN)
            return expr
        raise ParseError("expected an expression", tok)


def parse_program(source: str, filename: str = "<string>") -> A.Program:
    """Parse minilang source text into a :class:`~repro.minilang.ast_nodes.Program`."""
    return Parser(tokenize(source, filename), filename).parse_program()


def parse_function(source: str, filename: str = "<string>") -> A.FuncDef:
    """Parse a single function definition (convenience for tests)."""
    prog = parse_program(source, filename)
    if len(prog.funcs) != 1:
        raise ValueError(f"expected exactly one function, got {len(prog.funcs)}")
    return prog.funcs[0]
