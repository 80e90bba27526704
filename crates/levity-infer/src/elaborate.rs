//! Elaboration: surface modules to explicitly-typed Core.
//!
//! This pass is the reproduction of §5.2's inference story plus §7.3's
//! dictionary translation:
//!
//! * every λ-binder without an annotation gets a type metavariable
//!   `α :: TYPE ρ` with `ρ` a *representation* metavariable;
//! * declared levity-polymorphic signatures are *checked* by
//!   skolemizing their `forall (r :: Rep)` binders;
//! * at generalization, representation metavariables are never
//!   generalized — they are defaulted to `LiftedRep`;
//! * class constraints become dictionary arguments, classes become
//!   record datatypes, methods become selectors, and instances become
//!   top-level dictionary values, exactly as §7.3 describes.

use std::collections::HashMap;
use std::sync::Arc;

use levity_core::diag::{Diagnostic, Diagnostics, ErrorCode, Span};
use levity_core::kind::Kind;
use levity_core::rep::{Rep, RepTy};
use levity_core::symbol::{NameSupply, Symbol};
use levity_m::syntax::{Literal, PrimOp};

use levity_ir::terms::{
    CoreAlt, CoreExpr, DataConInfo, DataDecl, LetKind, Program, TopBind, TyArg, TyParam,
};
use levity_ir::typecheck::TypeEnv;
use levity_ir::types::{TyCon, Type};
use levity_surface::ast::{Module, SDecl, SExpr, SExprNode, SLit, SPat, SType};

use crate::convert::{convert_kind, convert_type, ConvScope, ConvertOptions};
use crate::families::{check_family, FamilyInfo};
use crate::unify::Unifier;

/// A class declaration, §7.3-style.
#[derive(Clone, Debug)]
pub struct ClassInfo {
    /// Class name.
    pub name: Symbol,
    /// Implicit representation parameters of the class variable's kind
    /// (`class Num (a :: TYPE r)` has one).
    pub rep_params: Vec<Symbol>,
    /// The class variable.
    pub var: Symbol,
    /// Its kind.
    pub var_kind: Kind,
    /// Method names and their types (in terms of the class variable).
    pub methods: Vec<(Symbol, Type)>,
    /// The generated dictionary constructor.
    pub dict_con: Arc<DataConInfo>,
}

/// A registered instance.
#[derive(Clone, Debug)]
pub struct InstanceInfo {
    /// The class.
    pub class: Symbol,
    /// The (atomic) instance head type.
    pub head: Type,
    /// The top-level dictionary value.
    pub dict_global: Symbol,
}

/// The class environment built during elaboration.
#[derive(Clone, Debug, Default)]
pub struct ClassEnv {
    /// Classes by name.
    pub classes: HashMap<Symbol, ClassInfo>,
    /// All instances.
    pub instances: Vec<InstanceInfo>,
    /// Method name → owning class.
    pub methods: HashMap<Symbol, Symbol>,
}

impl ClassEnv {
    /// Finds the instance for `class` at `head`, if any.
    pub fn lookup_instance(&self, class: Symbol, head: &Type) -> Option<&InstanceInfo> {
        self.instances
            .iter()
            .find(|i| i.class == class && i.head.alpha_eq(head))
    }
}

/// The result of elaborating a module.
#[derive(Debug)]
pub struct Elaborated {
    /// The Core program (prelude datatypes + all generated bindings).
    pub program: Program,
    /// The final type environment.
    pub env: TypeEnv,
    /// Classes and instances.
    pub classes: ClassEnv,
    /// Checked type families (§7.1).
    pub families: Vec<FamilyInfo>,
    /// Non-fatal diagnostics (warnings).
    pub warnings: Diagnostics,
}

/// The primop table: surface operator names to machine primops.
pub fn primop_table() -> HashMap<Symbol, PrimOp> {
    let mut m = HashMap::new();
    let mut ins = |s: &str, op: PrimOp| {
        m.insert(Symbol::intern(s), op);
    };
    ins("+#", PrimOp::AddI);
    ins("-#", PrimOp::SubI);
    ins("*#", PrimOp::MulI);
    ins("quotInt#", PrimOp::QuotI);
    ins("remInt#", PrimOp::RemI);
    ins("negateInt#", PrimOp::NegI);
    ins("==#", PrimOp::EqI);
    ins("/=#", PrimOp::NeI);
    ins("<#", PrimOp::LtI);
    ins("<=#", PrimOp::LeI);
    ins(">#", PrimOp::GtI);
    ins(">=#", PrimOp::GeI);
    ins("+##", PrimOp::AddD);
    ins("-##", PrimOp::SubD);
    ins("*##", PrimOp::MulD);
    ins("/##", PrimOp::DivD);
    ins("negateDouble#", PrimOp::NegD);
    ins("==##", PrimOp::EqD);
    ins("<##", PrimOp::LtD);
    ins("<=##", PrimOp::LeD);
    ins("plusFloat#", PrimOp::AddF);
    ins("minusFloat#", PrimOp::SubF);
    ins("timesFloat#", PrimOp::MulF);
    ins("divideFloat#", PrimOp::DivF);
    ins("int2Double#", PrimOp::IntToDouble);
    ins("double2Int#", PrimOp::DoubleToInt);
    ins("int2Float#", PrimOp::IntToFloat);
    ins("float2Double#", PrimOp::FloatToDouble);
    ins("ord#", PrimOp::CharToInt);
    ins("chr#", PrimOp::IntToChar);
    ins("eqChar#", PrimOp::EqC);
    m
}

/// Wrappers accumulated while peeling a signature. The variants are
/// deliberately named after the `CoreExpr` forms they wrap with.
#[allow(clippy::enum_variant_names)]
enum Wrapper {
    RepLam(Symbol),
    TyLam(Symbol, Kind),
    DictLam(Symbol, Type),
}

#[derive(Clone, Debug)]
struct Elaborator {
    env: TypeEnv,
    unifier: Unifier,
    classes: ClassEnv,
    families: Vec<FamilyInfo>,
    supply: NameSupply,
    prims: HashMap<Symbol, PrimOp>,
    locals: Vec<(Symbol, Type)>,
    rigid_tys: Vec<(Symbol, Kind)>,
    rigid_reps: Vec<Symbol>,
    givens: Vec<(Symbol, Type, Symbol)>,
    /// (placeholder var, class, wanted type, span)
    wanteds: Vec<(Symbol, Symbol, Type, Span)>,
    diags: Diagnostics,
    program: Program,
    error_name: Symbol,
}

const DIAG_LIMIT: usize = 60;

impl Elaborator {
    fn new() -> Elaborator {
        let env = TypeEnv::new();
        let program = Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: Vec::new(),
        };
        Elaborator {
            env,
            unifier: Unifier::new(),
            classes: ClassEnv::default(),
            families: Vec::new(),
            supply: NameSupply::new(),
            prims: primop_table(),
            locals: Vec::new(),
            rigid_tys: Vec::new(),
            rigid_reps: Vec::new(),
            givens: Vec::new(),
            wanteds: Vec::new(),
            diags: Diagnostics::new(),
            program,
            error_name: Symbol::intern("error"),
        }
    }

    fn diag(&mut self, d: Diagnostic) {
        if self.diags.len() < DIAG_LIMIT {
            self.diags.push(d);
        }
    }

    fn error_expr(&mut self, msg: &str, span: Span, code: ErrorCode) -> (CoreExpr, Type) {
        self.diag(Diagnostic::error(code, msg.to_owned(), span));
        let ty = self.unifier.fresh_ty_meta();
        (
            CoreExpr::Error(ty.clone(), format!("elaboration error: {msg}")),
            ty,
        )
    }

    fn conv_scope(&self) -> ConvScope {
        ConvScope {
            ty_vars: self.rigid_tys.clone(),
            rep_vars: self.rigid_reps.clone(),
        }
    }

    fn convert_sig(&mut self, sty: &SType, span: Span) -> Result<Type, Diagnostic> {
        let classes = self.classes.classes.keys().copied().collect::<Vec<_>>();
        let checker = move |c: Symbol| classes.contains(&c);
        convert_type(
            &self.env,
            &checker,
            sty,
            &mut self.conv_scope(),
            ConvertOptions {
                implicit_quantify: true,
                span,
            },
        )
    }

    fn convert_ann(&mut self, sty: &SType, span: Span) -> Result<Type, Diagnostic> {
        let classes = self.classes.classes.keys().copied().collect::<Vec<_>>();
        let checker = move |c: Symbol| classes.contains(&c);
        convert_type(
            &self.env,
            &checker,
            sty,
            &mut self.conv_scope(),
            ConvertOptions {
                implicit_quantify: false,
                span,
            },
        )
    }

    // =================================================================
    // Declarations
    // =================================================================

    fn process_data(
        &mut self,
        name: Symbol,
        params: &[(Symbol, Option<levity_surface::ast::SKind>)],
        cons: &[(Symbol, Vec<SType>)],
        span: Span,
    ) {
        // Build the tycon kind: κ₁ -> … -> Type (data types are lifted).
        let mut param_info = Vec::new();
        for (v, sk) in params {
            let kind = match sk {
                None => Kind::TYPE,
                Some(k) => {
                    let mut implicit = Vec::new();
                    match convert_kind(k, &ConvScope::new(), &mut implicit, span) {
                        Ok(k) if implicit.is_empty() => k,
                        Ok(_) => {
                            self.diag(Diagnostic::error(
                                ErrorCode::Scope,
                                "data type parameters may not have levity-polymorphic kinds",
                                span,
                            ));
                            Kind::TYPE
                        }
                        Err(d) => {
                            self.diag(d);
                            Kind::TYPE
                        }
                    }
                }
            };
            param_info.push((*v, kind));
        }
        let kind = param_info
            .iter()
            .rev()
            .fold(Kind::TYPE, |acc, (_, k)| Kind::arrow(k.clone(), acc));
        let tycon = Arc::new(TyCon { name, kind });
        // Register the tycon before converting fields (recursive types).
        let placeholder_decl = Arc::new(DataDecl {
            tycon: Arc::clone(&tycon),
            params: param_info
                .iter()
                .map(|(v, k)| TyParam::Ty(*v, k.clone()))
                .collect(),
            cons: Vec::new(),
        });
        self.env.add_data_decl(Arc::clone(&placeholder_decl));

        let result = Type::Con(
            Arc::clone(&tycon),
            param_info.iter().map(|(v, _)| Type::Var(*v)).collect(),
        );
        let mut scope = ConvScope::new();
        for (v, k) in &param_info {
            scope.ty_vars.push((*v, k.clone()));
        }
        let mut con_infos = Vec::new();
        for (tag, (cname, fields)) in cons.iter().enumerate() {
            let mut field_types = Vec::new();
            for f in fields {
                // Datatypes come before classes (pass 0), so no class is
                // known yet: a field's constraint names an unknown class.
                match convert_type(
                    &self.env,
                    &|_| false,
                    f,
                    &mut scope,
                    ConvertOptions {
                        implicit_quantify: false,
                        span,
                    },
                ) {
                    Ok(t) => field_types.push(t),
                    Err(d) => {
                        self.diag(d);
                        field_types.push(Type::con0(&self.env.builtins.unit));
                    }
                }
            }
            con_infos.push(Arc::new(DataConInfo {
                name: *cname,
                tag: tag as u32,
                params: param_info
                    .iter()
                    .map(|(v, k)| TyParam::Ty(*v, k.clone()))
                    .collect(),
                field_types,
                result: result.clone(),
            }));
        }
        let decl = Arc::new(DataDecl {
            tycon,
            params: param_info
                .iter()
                .map(|(v, k)| TyParam::Ty(*v, k.clone()))
                .collect(),
            cons: con_infos,
        });
        self.env.add_data_decl(Arc::clone(&decl));
        self.program.data_decls.push(decl);
    }

    fn process_class(
        &mut self,
        name: Symbol,
        var: Symbol,
        var_kind: &Option<levity_surface::ast::SKind>,
        methods: &[(Symbol, SType)],
        span: Span,
    ) {
        // The class variable's kind; free rep vars become class rep
        // params ("class Num (a :: TYPE r)", §7.3).
        let mut rep_params = Vec::new();
        let var_kind = match var_kind {
            None => Kind::TYPE,
            Some(sk) => match convert_kind(sk, &ConvScope::new(), &mut rep_params, span) {
                Ok(k) => k,
                Err(d) => {
                    self.diag(d);
                    Kind::TYPE
                }
            },
        };
        let mut scope = ConvScope::new();
        scope.rep_vars.extend(rep_params.iter().copied());
        scope.ty_vars.push((var, var_kind.clone()));
        let mut method_types = Vec::new();
        for (mname, sty) in methods {
            let classes = self.classes.classes.keys().copied().collect::<Vec<_>>();
            let checker = move |c: Symbol| classes.contains(&c);
            match convert_type(
                &self.env,
                &checker,
                sty,
                &mut scope,
                ConvertOptions {
                    implicit_quantify: false,
                    span,
                },
            ) {
                Ok(t) => method_types.push((*mname, t)),
                Err(d) => self.diag(d),
            }
        }
        // The dictionary datatype (§7.3):
        //   data Num (a :: TYPE r) = MkNum { (+) :: a->a->a, abs :: a->a }
        let dict_con = Arc::new(DataConInfo {
            name: dict_con_name(name),
            tag: 0,
            params: rep_params
                .iter()
                .map(|r| TyParam::Rep(*r))
                .chain(std::iter::once(TyParam::Ty(var, var_kind.clone())))
                .collect(),
            field_types: method_types.iter().map(|(_, t)| t.clone()).collect(),
            result: Type::Dict(name, Box::new(Type::Var(var))),
        });
        self.env.add_datacon(Arc::clone(&dict_con));

        // Method selectors: plain record selectors whose *types* are
        // levity-polymorphic but whose bodies bind only the lifted
        // dictionary (§7.3: "its implementation obeys the rules of 5.1").
        for (i, (mname, mty)) in method_types.iter().enumerate() {
            let sel_ty = rep_params.iter().rev().fold(
                Type::forall_ty(
                    var,
                    var_kind.clone(),
                    Type::fun(Type::Dict(name, Box::new(Type::Var(var))), mty.clone()),
                ),
                |acc, r| Type::forall_rep(*r, acc),
            );
            let d = self.supply.fresh("dict");
            let field_binders: Vec<(Symbol, Type)> = method_types
                .iter()
                .map(|(n, t)| (Symbol::intern(&format!("{n}$field")), t.clone()))
                .collect();
            let body = CoreExpr::case(
                CoreExpr::Var(d),
                vec![CoreAlt::Con {
                    con: Arc::clone(&dict_con),
                    binders: field_binders.clone(),
                    rhs: CoreExpr::Var(field_binders[i].0),
                }],
            );
            let core = rep_params.iter().rev().fold(
                CoreExpr::ty_lam(
                    var,
                    var_kind.clone(),
                    CoreExpr::lam(d, Type::Dict(name, Box::new(Type::Var(var))), body),
                ),
                |acc, r| CoreExpr::rep_lam(*r, acc),
            );
            self.env.define_global(*mname, sel_ty.clone());
            self.classes.methods.insert(*mname, name);
            self.program.bindings.push(TopBind {
                name: *mname,
                ty: sel_ty,
                expr: core,
            });
        }

        self.classes.classes.insert(
            name,
            ClassInfo {
                name,
                rep_params,
                var,
                var_kind,
                methods: method_types,
                dict_con,
            },
        );
    }

    /// Registers an instance header (dict global + table entry) without
    /// elaborating the bodies, so earlier bindings can resolve it.
    fn register_instance_header(
        &mut self,
        class: Symbol,
        head: &SType,
        span: Span,
    ) -> Option<(Symbol, Type, RepTy)> {
        let Some(ci) = self.classes.classes.get(&class).cloned() else {
            self.diag(Diagnostic::error(
                ErrorCode::ClassResolution,
                format!("instance for unknown class `{class}`"),
                span,
            ));
            return None;
        };
        let head_ty = match self.convert_ann(head, span) {
            Ok(t) => t,
            Err(d) => {
                self.diag(d);
                return None;
            }
        };
        // The head's kind fixes the class's rep parameter: Num Int#
        // instantiates r := IntRep.
        let mut scope = levity_ir::typecheck::Scope::new();
        let head_kind = match levity_ir::typecheck::kind_of(&self.env, &mut scope, &head_ty) {
            Ok(k) => k,
            Err(e) => {
                self.diag(Diagnostic::error(
                    ErrorCode::KindMismatch,
                    e.to_string(),
                    span,
                ));
                return None;
            }
        };
        let head_rep = match (&ci.var_kind, &head_kind) {
            (Kind::Type(RepTy::Var(_)), Kind::Type(rep)) => rep.clone(),
            (expected, actual) => {
                if expected != actual {
                    self.diag(
                        Diagnostic::error(
                            ErrorCode::KindMismatch,
                            format!(
                                "instance head `{head_ty}` has kind `{actual}`, but class `{class}` expects `{expected}`"
                            ),
                            span,
                        )
                        .with_note("only a levity-polymorphic class (class C (a :: TYPE r)) admits unlifted instances (section 7.3)"),
                    );
                    return None;
                }
                RepTy::LIFTED
            }
        };
        if self.classes.lookup_instance(class, &head_ty).is_some() {
            self.diag(Diagnostic::error(
                ErrorCode::ClassResolution,
                format!("duplicate instance `{class} {head_ty}`"),
                span,
            ));
            return None;
        }
        let dict_global = Symbol::intern(&format!("$d{class}_{head_ty}"));
        self.env
            .define_global(dict_global, Type::Dict(class, Box::new(head_ty.clone())));
        self.classes.instances.push(InstanceInfo {
            class,
            head: head_ty.clone(),
            dict_global,
        });
        Some((dict_global, head_ty, head_rep))
    }

    fn elaborate_instance_bodies(
        &mut self,
        class: Symbol,
        dict_global: Symbol,
        head_ty: Type,
        head_rep: RepTy,
        methods: &[(Symbol, Vec<SPat>, SExpr)],
        span: Span,
    ) {
        let Some(ci) = self.classes.classes.get(&class).cloned() else {
            return;
        };
        let mut method_globals = Vec::new();
        for (mname, mty) in &ci.methods {
            let Some((_, params, body)) = methods.iter().find(|(n, _, _)| n == mname) else {
                self.diag(Diagnostic::error(
                    ErrorCode::ClassResolution,
                    format!("instance `{class} {head_ty}` is missing method `{mname}`"),
                    span,
                ));
                continue;
            };
            // The method's type at this instance, fully monomorphic —
            // like the paper's plusInt# / absInt#.
            let mut inst_ty = mty.subst_ty(ci.var, &head_ty);
            for r in &ci.rep_params {
                inst_ty = inst_ty.subst_rep(*r, &head_rep);
            }
            let global = Symbol::intern(&format!("$f{class}_{head_ty}_{mname}"));
            let core = self.check_binding_body(params, body, &inst_ty, span);
            let core = self.finalize_binding(core, span);
            self.env.define_global(global, inst_ty.clone());
            self.program.bindings.push(TopBind {
                name: global,
                ty: inst_ty,
                expr: core,
            });
            method_globals.push(global);
        }
        for (mname, _, _) in methods {
            if !ci.methods.iter().any(|(n, _)| n == mname) {
                self.diag(Diagnostic::error(
                    ErrorCode::ClassResolution,
                    format!("`{mname}` is not a method of class `{class}`"),
                    span,
                ));
            }
        }
        if method_globals.len() != ci.methods.len() {
            return;
        }
        // $dNumInt# = MkNum @IntRep @Int# plusInt# absInt# (§7.3).
        let ty_args: Vec<TyArg> = ci
            .rep_params
            .iter()
            .map(|_| TyArg::Rep(head_rep.clone()))
            .chain(std::iter::once(TyArg::Ty(head_ty.clone())))
            .collect();
        let dict_expr = CoreExpr::Con(
            Arc::clone(&ci.dict_con),
            ty_args,
            method_globals.into_iter().map(CoreExpr::Global).collect(),
        );
        self.program.bindings.push(TopBind {
            name: dict_global,
            ty: Type::Dict(class, Box::new(head_ty)),
            expr: dict_expr,
        });
    }

    // =================================================================
    // Bindings
    // =================================================================

    /// Peels a signature's quantifiers and constraints, installing
    /// skolems and givens; returns the wrappers and the remaining type.
    fn skolemize(&mut self, sig: &Type) -> (Vec<Wrapper>, Type) {
        let mut wrappers = Vec::new();
        let mut ty = sig.clone();
        loop {
            match ty {
                Type::ForallRep(r, body) => {
                    self.rigid_reps.push(r);
                    wrappers.push(Wrapper::RepLam(r));
                    ty = *body;
                }
                Type::ForallTy(a, k, body) => {
                    if let Kind::Type(rep) = &k {
                        self.unifier.declare_rigid(a, rep.clone());
                    }
                    self.rigid_tys.push((a, k.clone()));
                    wrappers.push(Wrapper::TyLam(a, k));
                    ty = *body;
                }
                Type::Fun(dom, cod) => {
                    if let Type::Dict(c, arg) = *dom {
                        let d = self.supply.fresh("given");
                        self.givens.push((c, (*arg).clone(), d));
                        wrappers.push(Wrapper::DictLam(d, Type::Dict(c, arg)));
                        ty = *cod;
                    } else {
                        ty = Type::Fun(dom, cod);
                        break;
                    }
                }
                other => {
                    ty = other;
                    break;
                }
            }
        }
        (wrappers, ty)
    }

    fn unskolemize(&mut self, wrappers: &[Wrapper]) {
        for w in wrappers.iter().rev() {
            match w {
                Wrapper::RepLam(_) => {
                    self.rigid_reps.pop();
                }
                Wrapper::TyLam(..) => {
                    self.rigid_tys.pop();
                }
                Wrapper::DictLam(..) => {
                    self.givens.pop();
                }
            }
        }
    }

    fn apply_wrappers(wrappers: Vec<Wrapper>, core: CoreExpr) -> CoreExpr {
        wrappers.into_iter().rev().fold(core, |acc, w| match w {
            Wrapper::RepLam(r) => CoreExpr::rep_lam(r, acc),
            Wrapper::TyLam(a, k) => CoreExpr::ty_lam(a, k, acc),
            Wrapper::DictLam(d, t) => CoreExpr::lam(d, t, acc),
        })
    }

    /// Checks `\params -> body` against an expected (rho) type.
    fn check_clauses(
        &mut self,
        params: &[SPat],
        body: &SExpr,
        expected: &Type,
        span: Span,
    ) -> CoreExpr {
        if params.is_empty() {
            return self.check_expr(body, expected);
        }
        let expected = self.unifier.zonk(expected);
        let (dom, cod) = match expected {
            Type::Fun(d, c) => ((*d).clone(), (*c).clone()),
            other => {
                let d = self.unifier.fresh_ty_meta();
                let c = self.unifier.fresh_ty_meta();
                let fun = Type::fun(d.clone(), c.clone());
                if let Err(e) = self.unifier.unify(&other, &fun) {
                    self.diag(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        format!("too many parameters for the declared type: {e}"),
                        span,
                    ));
                }
                (d, c)
            }
        };
        let (name, wrap, pushed) = self.bind_pattern(&params[0], &dom, span);
        let inner = self.check_clauses(&params[1..], body, &cod, span);
        for _ in 0..pushed {
            self.locals.pop();
        }
        CoreExpr::lam(name, dom, wrap(inner))
    }

    /// Binds a λ-pattern against a domain type; returns the Core binder
    /// name, a body wrapper (for tuple unpacking), and how many locals
    /// were pushed.
    fn bind_pattern(
        &mut self,
        pat: &SPat,
        dom: &Type,
        span: Span,
    ) -> (Symbol, Box<dyn FnOnce(CoreExpr) -> CoreExpr>, usize) {
        match pat {
            SPat::Var(v) => {
                self.locals.push((*v, dom.clone()));
                (*v, Box::new(|e| e), 1)
            }
            SPat::Wild => (self.supply.fresh("wild"), Box::new(|e| e), 0),
            SPat::Ann(v, sty) => {
                match self.convert_ann(sty, span) {
                    Ok(t) => {
                        if let Err(e) = self.unifier.unify(dom, &t) {
                            self.diag(Diagnostic::error(
                                ErrorCode::TypeMismatch,
                                format!("pattern annotation mismatch: {e}"),
                                span,
                            ));
                        }
                    }
                    Err(d) => self.diag(d),
                }
                self.locals.push((*v, dom.clone()));
                (*v, Box::new(|e| e), 1)
            }
            SPat::UnboxedTuple(vars) => {
                let metas: Vec<Type> = vars.iter().map(|_| self.unifier.fresh_ty_meta()).collect();
                if let Err(e) = self.unifier.unify(dom, &Type::UnboxedTuple(metas.clone())) {
                    self.diag(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        format!("unboxed tuple pattern mismatch: {e}"),
                        span,
                    ));
                }
                for (v, t) in vars.iter().zip(&metas) {
                    self.locals.push((*v, t.clone()));
                }
                let scrut_name = self.supply.fresh("tup");
                let binders: Vec<(Symbol, Type)> = vars
                    .iter()
                    .zip(&metas)
                    .map(|(v, t)| (*v, t.clone()))
                    .collect();
                (
                    scrut_name,
                    Box::new(move |body| {
                        CoreExpr::case(
                            CoreExpr::Var(scrut_name),
                            vec![CoreAlt::Tuple { binders, rhs: body }],
                        )
                    }),
                    vars.len(),
                )
            }
            SPat::Con(..) | SPat::Lit(_) => {
                self.diag(Diagnostic::error(
                    ErrorCode::Parse,
                    "constructor and literal patterns are only allowed in case alternatives",
                    span,
                ));
                (self.supply.fresh("bad"), Box::new(|e| e), 0)
            }
        }
    }

    /// Checks a binding body (signature case): used for top-level signed
    /// binds and instance methods.
    fn check_binding_body(
        &mut self,
        params: &[SPat],
        body: &SExpr,
        sig: &Type,
        span: Span,
    ) -> CoreExpr {
        let (wrappers, rho) = self.skolemize(sig);
        let core = self.check_clauses(params, body, &rho, span);
        // Solve constraints *before* unskolemizing: the signature's
        // givens must be in scope to discharge wanteds like `Num a`.
        let replacements = self.solve_wanteds(span);
        let core = replace_vars(core, &replacements);
        self.unskolemize(&wrappers);
        Self::apply_wrappers(wrappers, core)
    }

    /// Solves accumulated wanted constraints against givens and
    /// instances; returns the placeholder replacements.
    fn solve_wanteds(&mut self, span: Span) -> HashMap<Symbol, CoreExpr> {
        let mut replacements: HashMap<Symbol, CoreExpr> = HashMap::new();
        let wanteds = std::mem::take(&mut self.wanteds);
        for (placeholder, class, ty, wspan) in wanteds {
            let ty = self.unifier.zonk(&ty);
            if let Some((_, _, d)) = self
                .givens
                .iter()
                .find(|(c, t, _)| *c == class && t.alpha_eq(&ty))
            {
                replacements.insert(placeholder, CoreExpr::Var(*d));
                continue;
            }
            if let Some(inst) = self.classes.lookup_instance(class, &ty) {
                replacements.insert(placeholder, CoreExpr::Global(inst.dict_global));
                continue;
            }
            self.diag(Diagnostic::error(
                ErrorCode::ClassResolution,
                format!("no instance for `{class} {ty}`"),
                if wspan.is_synthetic() { span } else { wspan },
            ));
            replacements.insert(
                placeholder,
                CoreExpr::Error(
                    Type::Dict(class, Box::new(ty.clone())),
                    format!("unresolved constraint {class} {ty}"),
                ),
            );
        }
        replacements
    }

    /// Solves any remaining wanted constraints, zonks, and replaces
    /// dictionary placeholders; the per-binding epilogue.
    fn finalize_binding(&mut self, core: CoreExpr, span: Span) -> CoreExpr {
        let replacements = self.solve_wanteds(span);
        let core = replace_vars(core, &replacements);
        self.zonk_core(core)
    }

    // =================================================================
    // Expressions
    // =================================================================

    fn lookup_local(&self, v: Symbol) -> Option<&Type> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _)| *n == v)
            .map(|(_, t)| t)
    }

    /// Instantiates a σ-type: rep foralls and ty foralls become fresh
    /// metas, leading dictionary arguments become wanted constraints.
    fn instantiate(&mut self, mut core: CoreExpr, mut ty: Type, span: Span) -> (CoreExpr, Type) {
        loop {
            ty = self.unifier.zonk(&ty);
            match ty {
                Type::ForallRep(r, body) => {
                    let rho = self.unifier.fresh_rep_meta();
                    core = CoreExpr::rep_app(core, rho.clone());
                    ty = body.subst_rep(r, &rho);
                }
                Type::ForallTy(a, k, body) => match self.unifier.zonk_kind(&k) {
                    Kind::Type(rep) => {
                        let meta = self.unifier.fresh_ty_meta_of(rep);
                        core = CoreExpr::ty_app(core, meta.clone());
                        ty = body.subst_ty(a, &meta);
                    }
                    other => {
                        self.diag(Diagnostic::error(
                            ErrorCode::KindMismatch,
                            format!(
                                "cannot instantiate higher-kinded type variable `{a} :: {other}`"
                            ),
                            span,
                        ));
                        ty = body.subst_ty(a, &Type::con0(&self.env.builtins.unit));
                    }
                },
                Type::Fun(dom, cod) if matches!(*dom, Type::Dict(..)) => {
                    let Type::Dict(c, arg) = *dom else {
                        unreachable!()
                    };
                    let placeholder = self.supply.fresh("$w");
                    self.wanteds.push((placeholder, c, (*arg).clone(), span));
                    core = CoreExpr::app(core, CoreExpr::Var(placeholder));
                    ty = *cod;
                }
                other => return (core, other),
            }
        }
    }

    /// Looks up a variable and returns elaborated Core plus its
    /// *uninstantiated* type.
    fn lookup_var(&mut self, v: Symbol, span: Span) -> Option<(CoreExpr, Type, bool)> {
        if let Some(t) = self.lookup_local(v) {
            return Some((CoreExpr::Var(v), t.clone(), false));
        }
        if let Some(t) = self.env.global(v) {
            return Some((CoreExpr::Global(v), t.clone(), true));
        }
        if let Some(op) = self.prims.get(&v).copied() {
            let (core, ty) = self.eta_expand_prim(op);
            return Some((core, ty, false));
        }
        let _ = span;
        None
    }

    fn eta_expand_prim(&mut self, op: PrimOp) -> (CoreExpr, Type) {
        let (args, result) = levity_ir::builtin::prim_signature(op, &self.env.builtins);
        let names: Vec<Symbol> = args.iter().map(|_| self.supply.fresh("pa")).collect();
        let body = CoreExpr::Prim(op, names.iter().map(|n| CoreExpr::Var(*n)).collect());
        let core = CoreExpr::lams(
            names
                .iter()
                .copied()
                .zip(args.iter().cloned())
                .collect::<Vec<_>>(),
            body,
        );
        (core, Type::funs(args, result))
    }

    /// Flattens an application spine.
    fn flatten_spine<'a>(e: &'a SExpr) -> (&'a SExpr, Vec<SpineArg<'a>>) {
        let mut args = Vec::new();
        let mut cur = e;
        loop {
            match &cur.node {
                SExprNode::App(f, a) => {
                    args.push(SpineArg::Term(a));
                    cur = f;
                }
                SExprNode::TyApp(f, t) => {
                    args.push(SpineArg::Type(t));
                    cur = f;
                }
                _ => break,
            }
        }
        args.reverse();
        (cur, args)
    }

    fn infer_expr(&mut self, e: &SExpr) -> (CoreExpr, Type) {
        let span = e.span;
        match &e.node {
            SExprNode::App(..) | SExprNode::TyApp(..) => self.infer_spine(e),
            SExprNode::Var(v) => {
                if *v == self.error_name {
                    return self.error_expr(
                        "`error` must be applied to a string literal",
                        span,
                        ErrorCode::TypeMismatch,
                    );
                }
                match self.lookup_var(*v, span) {
                    Some((core, ty, _global)) => self.instantiate(core, ty, span),
                    None => {
                        self.error_expr(&format!("unbound variable `{v}`"), span, ErrorCode::Scope)
                    }
                }
            }
            SExprNode::Con(c) => self.elaborate_con(*c, &[], span),
            SExprNode::Lit(l) => self.elaborate_lit(*l),
            SExprNode::Str(_) => self.error_expr(
                "string literals may only appear as the argument of `error`",
                span,
                ErrorCode::TypeMismatch,
            ),
            SExprNode::Lam(pats, body) => {
                // §5.2: each binder gets α :: TYPE ρ with ρ a fresh rep
                // metavariable.
                let mut binder_info = Vec::new();
                let mut pushed_total = 0;
                for pat in pats {
                    let dom = self.unifier.fresh_ty_meta();
                    let (name, wrap, pushed) = self.bind_pattern(pat, &dom, span);
                    binder_info.push((name, dom, wrap));
                    pushed_total += pushed;
                }
                let (body_core, body_ty) = self.infer_expr(body);
                for _ in 0..pushed_total {
                    self.locals.pop();
                }
                let mut core = body_core;
                let mut ty = body_ty;
                for (name, dom, wrap) in binder_info.into_iter().rev() {
                    core = CoreExpr::lam(name, dom.clone(), wrap(core));
                    ty = Type::fun(dom, ty);
                }
                (core, ty)
            }
            SExprNode::Let(x, ann, rhs, body) => self.elaborate_let(*x, ann, rhs, body, span),
            SExprNode::Case(scrut, alts) => {
                let result = self.unifier.fresh_ty_meta();
                let core = self.elaborate_case(scrut, alts, &result, span);
                (core, result)
            }
            SExprNode::If(c, t, f) => {
                let result = self.unifier.fresh_ty_meta();
                let core = self.elaborate_if(c, t, f, &result, span);
                (core, result)
            }
            SExprNode::UnboxedTuple(parts) => {
                let mut cores = Vec::new();
                let mut tys = Vec::new();
                for p in parts {
                    let (c, t) = self.infer_expr(p);
                    cores.push(c);
                    tys.push(t);
                }
                (CoreExpr::Tuple(cores), Type::UnboxedTuple(tys))
            }
            SExprNode::Ann(inner, sty) => {
                let ty = match self.convert_ann(sty, span) {
                    Ok(t) => t,
                    Err(d) => {
                        self.diag(d);
                        return self.infer_expr(inner);
                    }
                };
                if matches!(ty, Type::ForallRep(..) | Type::ForallTy(..)) {
                    // A σ-annotation: check like a signed binding.
                    let core = self.check_binding_body(&[], inner, &ty, span);
                    (core, ty)
                } else {
                    let core = self.check_expr(inner, &ty);
                    (core, ty)
                }
            }
        }
    }

    fn infer_spine(&mut self, e: &SExpr) -> (CoreExpr, Type) {
        let span = e.span;
        let (head, args) = Self::flatten_spine(e);
        match &head.node {
            SExprNode::Var(v) if *v == self.error_name => self.elaborate_error(&args, span),
            SExprNode::Var(v) if self.prims.contains_key(v) && self.lookup_local(*v).is_none() => {
                let op = self.prims[v];
                self.elaborate_prim(op, &args, span)
            }
            SExprNode::Con(c) => self.elaborate_con(*c, &args, span),
            // A variable head with visible type applications must keep
            // its σ-type until the @-arguments are consumed.
            SExprNode::Var(v)
                if args.iter().any(|a| matches!(a, SpineArg::Type(_)))
                    && self.lookup_var(*v, span).is_some() =>
            {
                let (mut core, mut ty) = self
                    .lookup_var(*v, span)
                    .map(|(c, t, _)| (c, t))
                    .expect("checked");
                for arg in args {
                    (core, ty) = self.apply_arg(core, ty, arg, span);
                }
                // Instantiate anything left over so downstream code sees
                // a ρ-type.
                self.instantiate(core, ty, span)
            }
            _ => {
                let (mut core, mut ty) = self.infer_expr(head);
                for arg in args {
                    (core, ty) = self.apply_arg(core, ty, arg, span);
                }
                (core, ty)
            }
        }
    }

    fn apply_arg(
        &mut self,
        core: CoreExpr,
        ty: Type,
        arg: SpineArg<'_>,
        span: Span,
    ) -> (CoreExpr, Type) {
        match arg {
            SpineArg::Type(sty) => {
                // Visible type application: auto-instantiate rep foralls,
                // then consume the next ty forall.
                let mut core = core;
                let mut ty = self.unifier.zonk(&ty);
                loop {
                    match ty {
                        Type::ForallRep(r, body) => {
                            let rho = self.unifier.fresh_rep_meta();
                            core = CoreExpr::rep_app(core, rho.clone());
                            ty = self.unifier.zonk(&body.subst_rep(r, &rho));
                        }
                        Type::ForallTy(a, k, body) => {
                            let arg_ty = match self.convert_ann(sty, span) {
                                Ok(t) => t,
                                Err(d) => {
                                    self.diag(d);
                                    Type::con0(&self.env.builtins.unit)
                                }
                            };
                            // Kind check: the argument's kind must match.
                            let mut scope = levity_ir::typecheck::Scope::new();
                            for (v, kk) in &self.rigid_tys {
                                scope.push(*v, levity_ir::typecheck::ScopeEntry::TyVar(kk.clone()));
                            }
                            for r in &self.rigid_reps {
                                scope.push(*r, levity_ir::typecheck::ScopeEntry::RepVar);
                            }
                            match levity_ir::typecheck::kind_of(&self.env, &mut scope, &arg_ty) {
                                Ok(actual) => {
                                    if let Err(err) = self
                                        .unifier
                                        .unify_kind(&self.unifier.zonk_kind(&k).clone(), &actual)
                                    {
                                        self.diag(Diagnostic::error(
                                            ErrorCode::KindMismatch,
                                            format!("type application kind mismatch: {err}"),
                                            span,
                                        ));
                                    }
                                }
                                Err(err) => self.diag(Diagnostic::error(
                                    ErrorCode::KindMismatch,
                                    err.to_string(),
                                    span,
                                )),
                            }
                            core = CoreExpr::ty_app(core, arg_ty.clone());
                            return (core, body.subst_ty(a, &arg_ty));
                        }
                        other => {
                            self.diag(Diagnostic::error(
                                ErrorCode::TypeMismatch,
                                format!("cannot type-apply a value of type `{other}`"),
                                span,
                            ));
                            return (core, other);
                        }
                    }
                }
            }
            SpineArg::Term(arg_expr) => {
                // Instantiate any remaining quantifiers first.
                let (core, ty) = self.instantiate(core, ty, span);
                let ty = self.unifier.zonk(&ty);
                match ty {
                    Type::Fun(dom, cod) => {
                        let arg_core = self.check_expr(arg_expr, &dom);
                        (CoreExpr::app(core, arg_core), *cod)
                    }
                    other @ Type::Var(_) => {
                        let dom = self.unifier.fresh_ty_meta();
                        let cod = self.unifier.fresh_ty_meta();
                        let fun = Type::fun(dom.clone(), cod.clone());
                        if let Err(err) = self.unifier.unify(&other, &fun) {
                            self.diag(Diagnostic::error(
                                ErrorCode::TypeMismatch,
                                format!("cannot apply: {err}"),
                                span,
                            ));
                        }
                        let arg_core = self.check_expr(arg_expr, &dom);
                        (CoreExpr::app(core, arg_core), cod)
                    }
                    other => {
                        let (c, t) = self.error_expr(
                            &format!("cannot apply a value of type `{other}`"),
                            span,
                            ErrorCode::TypeMismatch,
                        );
                        let _ = (c, core);
                        (CoreExpr::Error(t.clone(), "bad application".to_owned()), t)
                    }
                }
            }
        }
    }

    fn elaborate_error(&mut self, args: &[SpineArg<'_>], span: Span) -> (CoreExpr, Type) {
        // error [@τ] "msg" [more args…]
        let mut requested: Option<Type> = None;
        let mut rest = args;
        if let Some(SpineArg::Type(sty)) = rest.first() {
            match self.convert_ann(sty, span) {
                Ok(t) => requested = Some(t),
                Err(d) => self.diag(d),
            }
            rest = &rest[1..];
        }
        let Some(SpineArg::Term(msg_expr)) = rest.first() else {
            return self.error_expr(
                "`error` must be applied to a string literal",
                span,
                ErrorCode::TypeMismatch,
            );
        };
        let SExprNode::Str(msg) = &msg_expr.node else {
            return self.error_expr(
                "`error` takes a string literal message",
                span,
                ErrorCode::TypeMismatch,
            );
        };
        rest = &rest[1..];
        let result_ty = requested.unwrap_or_else(|| self.unifier.fresh_ty_meta());
        let mut core = CoreExpr::Error(result_ty.clone(), msg.clone());
        let mut ty = result_ty;
        for arg in rest {
            (core, ty) = self.apply_arg(core, ty, arg.clone_ref(), span);
        }
        (core, ty)
    }

    fn elaborate_prim(
        &mut self,
        op: PrimOp,
        args: &[SpineArg<'_>],
        span: Span,
    ) -> (CoreExpr, Type) {
        let (arg_tys, result) = levity_ir::builtin::prim_signature(op, &self.env.builtins);
        let arity = arg_tys.len();
        let term_args: Vec<&SExpr> = args
            .iter()
            .filter_map(|a| match a {
                SpineArg::Term(e) => Some(*e),
                SpineArg::Type(_) => None,
            })
            .collect();
        if term_args.len() != args.len() {
            self.diag(Diagnostic::error(
                ErrorCode::TypeMismatch,
                "primops take no type arguments",
                span,
            ));
        }
        if term_args.len() >= arity {
            let mut cores = Vec::new();
            for (a, t) in term_args.iter().take(arity).zip(&arg_tys) {
                cores.push(self.check_expr(a, t));
            }
            let mut core = CoreExpr::Prim(op, cores);
            let mut ty = result;
            for extra in &term_args[arity..] {
                (core, ty) = self.apply_arg(core, ty, SpineArg::Term(extra), span);
            }
            (core, ty)
        } else {
            // Partial application: η-expand.
            let (core, ty) = self.eta_expand_prim(op);
            let mut core = core;
            let mut ty = ty;
            for a in term_args {
                (core, ty) = self.apply_arg(core, ty, SpineArg::Term(a), span);
            }
            (core, ty)
        }
    }

    fn elaborate_con(
        &mut self,
        cname: Symbol,
        args: &[SpineArg<'_>],
        span: Span,
    ) -> (CoreExpr, Type) {
        let Some(con) = self.env.datacon(cname).cloned() else {
            return self.error_expr(
                &format!("unknown data constructor `{cname}`"),
                span,
                ErrorCode::Scope,
            );
        };
        // Instantiate the constructor's parameters with fresh metas.
        let mut ty_args = Vec::new();
        let mut fields = con.field_types.clone();
        let mut result = con.result.clone();
        for p in &con.params {
            match p {
                TyParam::Rep(r) => {
                    let rho = self.unifier.fresh_rep_meta();
                    fields = fields.into_iter().map(|f| f.subst_rep(*r, &rho)).collect();
                    result = result.subst_rep(*r, &rho);
                    ty_args.push(TyArg::Rep(rho));
                }
                TyParam::Ty(v, k) => {
                    let meta = match k {
                        Kind::Type(rep) => self.unifier.fresh_ty_meta_of(rep.clone()),
                        _ => self.unifier.fresh_ty_meta(),
                    };
                    fields = fields.into_iter().map(|f| f.subst_ty(*v, &meta)).collect();
                    result = result.subst_ty(*v, &meta);
                    ty_args.push(TyArg::Ty(meta));
                }
            }
        }
        let term_args: Vec<&SExpr> = args
            .iter()
            .filter_map(|a| match a {
                SpineArg::Term(e) => Some(*e),
                SpineArg::Type(_) => None,
            })
            .collect();
        if term_args.len() != args.len() {
            self.diag(Diagnostic::error(
                ErrorCode::TypeMismatch,
                "visible type application to data constructors is not supported",
                span,
            ));
        }
        let arity = fields.len();
        if term_args.len() >= arity {
            let mut field_cores = Vec::new();
            for (a, t) in term_args.iter().take(arity).zip(&fields) {
                field_cores.push(self.check_expr(a, t));
            }
            let mut core = CoreExpr::Con(con, ty_args, field_cores);
            let mut ty = result;
            for extra in &term_args[arity..] {
                (core, ty) = self.apply_arg(core, ty, SpineArg::Term(extra), span);
            }
            (core, ty)
        } else {
            // η-expand the unsaturated constructor.
            let missing: Vec<(Symbol, Type)> = fields[term_args.len()..]
                .iter()
                .map(|t| (self.supply.fresh("eta"), t.clone()))
                .collect();
            let mut field_cores = Vec::new();
            for (a, t) in term_args.iter().zip(&fields) {
                field_cores.push(self.check_expr(a, t));
            }
            field_cores.extend(missing.iter().map(|(n, _)| CoreExpr::Var(*n)));
            let body = CoreExpr::Con(con, ty_args, field_cores);
            let core = CoreExpr::lams(missing.clone(), body);
            let ty = Type::funs(missing.iter().map(|(_, t)| t.clone()), result);
            (core, ty)
        }
    }

    fn elaborate_lit(&mut self, lit: SLit) -> (CoreExpr, Type) {
        let b = self.env.builtins.clone();
        match lit {
            SLit::IntHash(n) => (CoreExpr::Lit(Literal::Int(n)), Type::con0(&b.int_hash)),
            SLit::DoubleHash(x) => (
                CoreExpr::Lit(Literal::double(x)),
                Type::con0(&b.double_hash),
            ),
            SLit::CharHash(c) => (CoreExpr::Lit(Literal::Char(c)), Type::con0(&b.char_hash)),
            // Boxed literals are ordinary constructor applications:
            // 3 is I# 3# (§2.1).
            SLit::Int(n) => (
                CoreExpr::Con(
                    Arc::clone(&b.i_hash),
                    vec![],
                    vec![CoreExpr::Lit(Literal::Int(n))],
                ),
                Type::con0(&b.int),
            ),
            SLit::Double(x) => (
                CoreExpr::Con(
                    Arc::clone(&b.d_hash),
                    vec![],
                    vec![CoreExpr::Lit(Literal::double(x))],
                ),
                Type::con0(&b.double),
            ),
            SLit::Char(c) => (
                CoreExpr::Con(
                    Arc::clone(&b.c_hash),
                    vec![],
                    vec![CoreExpr::Lit(Literal::Char(c))],
                ),
                Type::con0(&b.char),
            ),
        }
    }

    fn elaborate_let(
        &mut self,
        x: Symbol,
        ann: &Option<SType>,
        rhs: &SExpr,
        body: &SExpr,
        span: Span,
    ) -> (CoreExpr, Type) {
        let declared = match ann {
            Some(sty) => match self.convert_ann(sty, span) {
                Ok(t) => Some(t),
                Err(d) => {
                    self.diag(d);
                    None
                }
            },
            None => None,
        };
        let recursive = occurs_in_expr(x, rhs);
        match declared {
            Some(sig) if matches!(sig, Type::ForallRep(..) | Type::ForallTy(..)) => {
                // Polymorphic local binding with a signature.
                if recursive {
                    self.locals.push((x, sig.clone()));
                }
                let rhs_core = self.check_binding_body(&[], rhs, &sig, span);
                if recursive {
                    self.locals.pop();
                }
                self.locals.push((x, sig.clone()));
                let (body_core, body_ty) = self.infer_expr(body);
                self.locals.pop();
                let kind = if recursive {
                    LetKind::Rec
                } else {
                    LetKind::NonRec
                };
                (
                    CoreExpr::Let(kind, x, sig, Box::new(rhs_core), Box::new(body_core)),
                    body_ty,
                )
            }
            declared => {
                // Monomorphic local let (the paper's footnote 11 relates
                // rep-defaulting to the monomorphism restriction; local
                // lets here are simply monomorphic).
                let ty = declared.unwrap_or_else(|| self.unifier.fresh_ty_meta());
                if recursive {
                    self.locals.push((x, ty.clone()));
                }
                let rhs_core = self.check_expr(rhs, &ty);
                if recursive {
                    self.locals.pop();
                }
                self.locals.push((x, ty.clone()));
                let (body_core, body_ty) = self.infer_expr(body);
                self.locals.pop();
                let kind = if recursive {
                    LetKind::Rec
                } else {
                    LetKind::NonRec
                };
                (
                    CoreExpr::Let(kind, x, ty, Box::new(rhs_core), Box::new(body_core)),
                    body_ty,
                )
            }
        }
    }

    fn elaborate_case(
        &mut self,
        scrut: &SExpr,
        alts: &[(SPat, SExpr)],
        result: &Type,
        span: Span,
    ) -> CoreExpr {
        let (scrut_core, scrut_ty) = self.infer_expr(scrut);
        if alts.is_empty() {
            self.diag(Diagnostic::error(
                ErrorCode::Parse,
                "empty case expression",
                span,
            ));
            return CoreExpr::Error(result.clone(), "empty case".to_owned());
        }
        let mut core_alts = Vec::new();
        for (pat, rhs) in alts {
            match pat {
                SPat::Con(cname, vars) => {
                    let Some(con) = self.env.datacon(*cname).cloned() else {
                        self.diag(Diagnostic::error(
                            ErrorCode::Scope,
                            format!("unknown data constructor `{cname}` in pattern"),
                            span,
                        ));
                        continue;
                    };
                    // Instantiate and match the result type against the
                    // scrutinee.
                    let mut fields = con.field_types.clone();
                    let mut result_ty = con.result.clone();
                    for p in &con.params {
                        match p {
                            TyParam::Rep(r) => {
                                let rho = self.unifier.fresh_rep_meta();
                                fields =
                                    fields.into_iter().map(|f| f.subst_rep(*r, &rho)).collect();
                                result_ty = result_ty.subst_rep(*r, &rho);
                            }
                            TyParam::Ty(v, k) => {
                                let meta = match k {
                                    Kind::Type(rep) => self.unifier.fresh_ty_meta_of(rep.clone()),
                                    _ => self.unifier.fresh_ty_meta(),
                                };
                                fields =
                                    fields.into_iter().map(|f| f.subst_ty(*v, &meta)).collect();
                                result_ty = result_ty.subst_ty(*v, &meta);
                            }
                        }
                    }
                    if let Err(e) = self.unifier.unify(&result_ty, &scrut_ty) {
                        self.diag(Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            format!("pattern `{cname}` does not match scrutinee: {e}"),
                            span,
                        ));
                    }
                    if vars.len() != fields.len() {
                        self.diag(Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            format!(
                                "constructor `{cname}` has {} fields, pattern binds {}",
                                fields.len(),
                                vars.len()
                            ),
                            span,
                        ));
                        continue;
                    }
                    for (v, t) in vars.iter().zip(&fields) {
                        self.locals.push((*v, t.clone()));
                    }
                    let rhs_core = self.check_expr(rhs, result);
                    for _ in vars {
                        self.locals.pop();
                    }
                    core_alts.push(CoreAlt::Con {
                        con,
                        binders: vars.iter().copied().zip(fields).collect(),
                        rhs: rhs_core,
                    });
                }
                SPat::Lit(lit) => {
                    let (mlit, lit_ty) = match lit {
                        SLit::IntHash(n) => {
                            (Literal::Int(*n), Type::con0(&self.env.builtins.int_hash))
                        }
                        SLit::DoubleHash(x) => (
                            Literal::double(*x),
                            Type::con0(&self.env.builtins.double_hash),
                        ),
                        SLit::CharHash(c) => {
                            (Literal::Char(*c), Type::con0(&self.env.builtins.char_hash))
                        }
                        SLit::Int(_) | SLit::Double(_) | SLit::Char(_) => {
                            self.diag(Diagnostic::error(
                                ErrorCode::Parse,
                                "boxed literal patterns are not supported; match on the unboxed payload (case x of I#[n] -> …)",
                                span,
                            ));
                            continue;
                        }
                    };
                    if let Err(e) = self.unifier.unify(&lit_ty, &scrut_ty) {
                        self.diag(Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            format!("literal pattern mismatch: {e}"),
                            span,
                        ));
                    }
                    let rhs_core = self.check_expr(rhs, result);
                    core_alts.push(CoreAlt::Lit {
                        lit: mlit,
                        rhs: rhs_core,
                    });
                }
                SPat::UnboxedTuple(vars) => {
                    let metas: Vec<Type> =
                        vars.iter().map(|_| self.unifier.fresh_ty_meta()).collect();
                    if let Err(e) = self
                        .unifier
                        .unify(&scrut_ty, &Type::UnboxedTuple(metas.clone()))
                    {
                        self.diag(Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            format!("unboxed tuple pattern mismatch: {e}"),
                            span,
                        ));
                    }
                    for (v, t) in vars.iter().zip(&metas) {
                        self.locals.push((*v, t.clone()));
                    }
                    let rhs_core = self.check_expr(rhs, result);
                    for _ in vars {
                        self.locals.pop();
                    }
                    core_alts.push(CoreAlt::Tuple {
                        binders: vars.iter().copied().zip(metas).collect(),
                        rhs: rhs_core,
                    });
                }
                SPat::Wild => {
                    let rhs_core = self.check_expr(rhs, result);
                    core_alts.push(CoreAlt::Default {
                        binder: None,
                        rhs: rhs_core,
                    });
                }
                SPat::Var(v) => {
                    self.locals.push((*v, scrut_ty.clone()));
                    let rhs_core = self.check_expr(rhs, result);
                    self.locals.pop();
                    core_alts.push(CoreAlt::Default {
                        binder: Some((*v, scrut_ty.clone())),
                        rhs: rhs_core,
                    });
                }
                SPat::Ann(..) => {
                    self.diag(Diagnostic::error(
                        ErrorCode::Parse,
                        "annotated patterns are not allowed in case alternatives",
                        span,
                    ));
                }
            }
        }
        CoreExpr::case(scrut_core, core_alts)
    }

    fn elaborate_if(
        &mut self,
        c: &SExpr,
        t: &SExpr,
        f: &SExpr,
        result: &Type,
        _span: Span,
    ) -> CoreExpr {
        let bool_ty = Type::con0(&self.env.builtins.bool);
        let c_core = self.check_expr(c, &bool_ty);
        let t_core = self.check_expr(t, result);
        let f_core = self.check_expr(f, result);
        let b = &self.env.builtins;
        CoreExpr::case(
            c_core,
            vec![
                CoreAlt::Con {
                    con: Arc::clone(&b.false_con),
                    binders: vec![],
                    rhs: f_core,
                },
                CoreAlt::Con {
                    con: Arc::clone(&b.true_con),
                    binders: vec![],
                    rhs: t_core,
                },
            ],
        )
    }

    fn check_expr(&mut self, e: &SExpr, expected: &Type) -> CoreExpr {
        let span = e.span;
        match &e.node {
            SExprNode::Lam(pats, body) => self.check_clauses(pats, body, expected, span),
            SExprNode::Case(scrut, alts) => self.elaborate_case(scrut, alts, expected, span),
            SExprNode::If(c, t, f) => self.elaborate_if(c, t, f, expected, span),
            SExprNode::Let(x, ann, rhs, body) => {
                // Propagate the expected type into the body.
                let (core, ty) = self.elaborate_let(*x, ann, rhs, body, span);
                if let Err(err) = self.unifier.unify(&ty, expected) {
                    self.diag(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        format!("{err}"),
                        span,
                    ));
                }
                core
            }
            _ => {
                let (core, ty) = self.infer_expr(e);
                if let Err(err) = self.unifier.unify(&ty, expected) {
                    self.diag(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        format!("{err}"),
                        span,
                    ));
                }
                core
            }
        }
    }

    // =================================================================
    // Zonking Core
    // =================================================================

    fn zonk_ty_final(&mut self, ty: &Type, span: Span) -> Type {
        let z = self.unifier.zonk(ty);
        self.default_unsolved(&z, span)
    }

    /// Replaces any still-unsolved metavariables with defaults: rep
    /// metas with `LiftedRep` (§5.2) and type metas with a default type
    /// of the right representation.
    fn default_unsolved(&mut self, ty: &Type, span: Span) -> Type {
        match ty {
            Type::Var(v) if Unifier::is_ty_meta(*v) => {
                let rep = self
                    .unifier
                    .meta_kind_rep(*v)
                    .map(|r| self.unifier.zonk_rep(&r))
                    .unwrap_or(RepTy::LIFTED);
                let b = self.env.builtins.clone();
                let default = match rep.as_concrete() {
                    Some(Rep::Int) => Type::con0(&b.int_hash),
                    Some(Rep::Double) => Type::con0(&b.double_hash),
                    Some(Rep::Float) => Type::con0(&b.float_hash),
                    Some(Rep::Char) => Type::con0(&b.char_hash),
                    Some(Rep::Lifted) | None => Type::con0(&b.unit),
                    Some(other) => {
                        self.diag(Diagnostic::error(
                            ErrorCode::TypeMismatch,
                            format!("ambiguous type with representation `{other}`"),
                            span,
                        ));
                        Type::con0(&b.unit)
                    }
                };
                self.unifier.solve_ty_meta(*v, default.clone());
                default
            }
            Type::Var(_) => ty.clone(),
            Type::Con(tc, args) => Type::Con(
                tc.clone(),
                args.iter()
                    .map(|a| self.default_unsolved(a, span))
                    .collect(),
            ),
            Type::Fun(a, b) => Type::fun(
                self.default_unsolved(a, span),
                self.default_unsolved(b, span),
            ),
            Type::ForallTy(v, k, body) => {
                Type::forall_ty(*v, k.clone(), self.default_unsolved(body, span))
            }
            Type::ForallRep(r, body) => Type::forall_rep(*r, self.default_unsolved(body, span)),
            Type::UnboxedTuple(ts) => {
                Type::UnboxedTuple(ts.iter().map(|t| self.default_unsolved(t, span)).collect())
            }
            Type::Dict(c, t) => Type::Dict(*c, Box::new(self.default_unsolved(t, span))),
        }
    }

    fn zonk_core(&mut self, e: CoreExpr) -> CoreExpr {
        let span = Span::SYNTHETIC;
        match e {
            CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) => e,
            CoreExpr::App(f, a) => CoreExpr::app(self.zonk_core(*f), self.zonk_core(*a)),
            CoreExpr::TyApp(f, t) => {
                let t = self.zonk_ty_final(&t, span);
                CoreExpr::ty_app(self.zonk_core(*f), t)
            }
            CoreExpr::RepApp(f, r) => {
                let mut r = self.unifier.zonk_rep(&r);
                if r.free_vars().iter().any(|v| Unifier::is_rep_meta(*v)) {
                    // Unconstrained rep application: default to lifted.
                    for v in r.free_vars() {
                        if Unifier::is_rep_meta(v) {
                            r = r.substitute(v, &RepTy::LIFTED);
                        }
                    }
                }
                CoreExpr::rep_app(self.zonk_core(*f), r)
            }
            CoreExpr::Lam(x, t, b) => {
                let t = self.zonk_ty_final(&t, span);
                CoreExpr::lam(x, t, self.zonk_core(*b))
            }
            CoreExpr::TyLam(a, k, b) => {
                let k = self.unifier.zonk_kind(&k);
                CoreExpr::ty_lam(a, k, self.zonk_core(*b))
            }
            CoreExpr::RepLam(r, b) => CoreExpr::rep_lam(r, self.zonk_core(*b)),
            CoreExpr::Let(kind, x, t, rhs, body) => {
                let t = self.zonk_ty_final(&t, span);
                CoreExpr::Let(
                    kind,
                    x,
                    t,
                    Box::new(self.zonk_core(*rhs)),
                    Box::new(self.zonk_core(*body)),
                )
            }
            CoreExpr::Case(scrut, alts) => {
                let scrut = self.zonk_core(*scrut);
                let alts = alts
                    .into_iter()
                    .map(|alt| match alt {
                        CoreAlt::Con { con, binders, rhs } => CoreAlt::Con {
                            con,
                            binders: binders
                                .into_iter()
                                .map(|(x, t)| (x, self.zonk_ty_final(&t, span)))
                                .collect(),
                            rhs: self.zonk_core(rhs),
                        },
                        CoreAlt::Lit { lit, rhs } => CoreAlt::Lit {
                            lit,
                            rhs: self.zonk_core(rhs),
                        },
                        CoreAlt::Tuple { binders, rhs } => CoreAlt::Tuple {
                            binders: binders
                                .into_iter()
                                .map(|(x, t)| (x, self.zonk_ty_final(&t, span)))
                                .collect(),
                            rhs: self.zonk_core(rhs),
                        },
                        CoreAlt::Default { binder, rhs } => CoreAlt::Default {
                            binder: binder.map(|(x, t)| (x, self.zonk_ty_final(&t, span))),
                            rhs: self.zonk_core(rhs),
                        },
                    })
                    .collect();
                CoreExpr::Case(Box::new(scrut), alts)
            }
            CoreExpr::Con(con, ty_args, fields) => {
                let ty_args = ty_args
                    .into_iter()
                    .map(|a| match a {
                        TyArg::Ty(t) => TyArg::Ty(self.zonk_ty_final(&t, span)),
                        TyArg::Rep(r) => {
                            let mut r = self.unifier.zonk_rep(&r);
                            for v in r.free_vars() {
                                if Unifier::is_rep_meta(v) {
                                    r = r.substitute(v, &RepTy::LIFTED);
                                }
                            }
                            TyArg::Rep(r)
                        }
                    })
                    .collect();
                let fields = fields.into_iter().map(|f| self.zonk_core(f)).collect();
                CoreExpr::Con(con, ty_args, fields)
            }
            CoreExpr::Prim(op, args) => {
                CoreExpr::Prim(op, args.into_iter().map(|a| self.zonk_core(a)).collect())
            }
            CoreExpr::Tuple(args) => {
                CoreExpr::Tuple(args.into_iter().map(|a| self.zonk_core(a)).collect())
            }
            CoreExpr::Error(t, msg) => CoreExpr::Error(self.zonk_ty_final(&t, span), msg),
        }
    }

    // =================================================================
    // Top level
    // =================================================================

    fn elaborate_top_bind(
        &mut self,
        name: Symbol,
        params: &[SPat],
        body: &SExpr,
        sig: Option<&Type>,
        span: Span,
    ) {
        match sig {
            Some(sig) => {
                let sig = sig.clone();
                let core = self.check_binding_body(params, body, &sig, span);
                let core = self.finalize_binding(core, span);
                self.program.bindings.push(TopBind {
                    name,
                    ty: sig,
                    expr: core,
                });
            }
            None => {
                // Infer, then generalize with rep defaulting (§5.2).
                let self_ty = self.unifier.fresh_ty_meta();
                self.locals.push((name, self_ty.clone()));
                let lam = if params.is_empty() {
                    body.clone()
                } else {
                    SExpr::new(
                        SExprNode::Lam(params.to_vec(), Box::new(body.clone())),
                        span,
                    )
                };
                let (core, ty) = self.infer_expr(&lam);
                self.locals.pop();
                if let Err(e) = self.unifier.unify(&self_ty, &ty) {
                    self.diag(Diagnostic::error(
                        ErrorCode::TypeMismatch,
                        format!("recursive binding type mismatch: {e}"),
                        span,
                    ));
                }
                // 1. Default all rep metavariables to LiftedRep: we never
                //    infer levity polymorphism.
                self.unifier.default_rep_metas(&ty);
                // 2. Generalize remaining type metavariables at their
                //    (now concrete) kinds.
                let metas = self.unifier.free_ty_metas(&ty);
                let mut quantified = Vec::new();
                for m in metas {
                    let rep = self
                        .unifier
                        .meta_kind_rep(m)
                        .map(|r| self.unifier.zonk_rep(&r))
                        .unwrap_or(RepTy::LIFTED);
                    let fresh = self.supply.fresh("a");
                    self.unifier.solve_ty_meta(m, Type::Var(fresh));
                    quantified.push((fresh, Kind::Type(rep)));
                }
                let core = self.finalize_binding(core, span);
                let ty = self.zonk_ty_final(&ty, span);
                let gen_ty = quantified
                    .iter()
                    .rev()
                    .fold(ty, |acc, (v, k)| Type::forall_ty(*v, k.clone(), acc));
                let gen_core = quantified
                    .iter()
                    .rev()
                    .fold(core, |acc, (v, k)| CoreExpr::ty_lam(*v, k.clone(), acc));
                self.env.define_global(name, gen_ty.clone());
                self.program.bindings.push(TopBind {
                    name,
                    ty: gen_ty,
                    expr: gen_core,
                });
            }
        }
    }
}

/// A spine argument.
enum SpineArg<'a> {
    /// An ordinary argument.
    Term(&'a SExpr),
    /// A visible type application.
    Type(&'a SType),
}

impl<'a> SpineArg<'a> {
    fn clone_ref(&self) -> SpineArg<'a> {
        match self {
            SpineArg::Term(e) => SpineArg::Term(e),
            SpineArg::Type(t) => SpineArg::Type(t),
        }
    }
}

/// Does `x` occur free in the expression? (Detects recursive lets.)
fn occurs_in_expr(x: Symbol, e: &SExpr) -> bool {
    match &e.node {
        SExprNode::Var(v) => *v == x,
        SExprNode::Con(_) | SExprNode::Lit(_) | SExprNode::Str(_) => false,
        SExprNode::App(a, b) => occurs_in_expr(x, a) || occurs_in_expr(x, b),
        SExprNode::TyApp(a, _) => occurs_in_expr(x, a),
        SExprNode::Lam(pats, body) => {
            !pats.iter().any(|p| pat_binds(p, x)) && occurs_in_expr(x, body)
        }
        SExprNode::Let(y, _, rhs, body) => {
            if *y == x {
                // Shadowed in both rhs (if recursive) and body.
                false
            } else {
                occurs_in_expr(x, rhs) || occurs_in_expr(x, body)
            }
        }
        SExprNode::Case(scrut, alts) => {
            occurs_in_expr(x, scrut)
                || alts
                    .iter()
                    .any(|(p, rhs)| !pat_binds(p, x) && occurs_in_expr(x, rhs))
        }
        SExprNode::If(c, t, f) => {
            occurs_in_expr(x, c) || occurs_in_expr(x, t) || occurs_in_expr(x, f)
        }
        SExprNode::UnboxedTuple(parts) => parts.iter().any(|p| occurs_in_expr(x, p)),
        SExprNode::Ann(a, _) => occurs_in_expr(x, a),
    }
}

fn pat_binds(p: &SPat, x: Symbol) -> bool {
    match p {
        SPat::Var(v) | SPat::Ann(v, _) => *v == x,
        SPat::Con(_, vars) | SPat::UnboxedTuple(vars) => vars.contains(&x),
        SPat::Lit(_) | SPat::Wild => false,
    }
}

/// Replaces free variables by Core expressions (dictionary placeholder
/// resolution; placeholders are globally fresh, so shadowing cannot
/// occur).
fn replace_vars(e: CoreExpr, map: &HashMap<Symbol, CoreExpr>) -> CoreExpr {
    if map.is_empty() {
        return e;
    }
    match e {
        CoreExpr::Var(v) => match map.get(&v) {
            Some(r) => r.clone(),
            None => CoreExpr::Var(v),
        },
        CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => e,
        CoreExpr::App(f, a) => CoreExpr::app(replace_vars(*f, map), replace_vars(*a, map)),
        CoreExpr::TyApp(f, t) => CoreExpr::ty_app(replace_vars(*f, map), t),
        CoreExpr::RepApp(f, r) => CoreExpr::rep_app(replace_vars(*f, map), r),
        CoreExpr::Lam(x, t, b) => CoreExpr::lam(x, t, replace_vars(*b, map)),
        CoreExpr::TyLam(a, k, b) => CoreExpr::ty_lam(a, k, replace_vars(*b, map)),
        CoreExpr::RepLam(r, b) => CoreExpr::rep_lam(r, replace_vars(*b, map)),
        CoreExpr::Let(kind, x, t, rhs, body) => CoreExpr::Let(
            kind,
            x,
            t,
            Box::new(replace_vars(*rhs, map)),
            Box::new(replace_vars(*body, map)),
        ),
        CoreExpr::Case(scrut, alts) => CoreExpr::Case(
            Box::new(replace_vars(*scrut, map)),
            alts.into_iter()
                .map(|alt| match alt {
                    CoreAlt::Con { con, binders, rhs } => CoreAlt::Con {
                        con,
                        binders,
                        rhs: replace_vars(rhs, map),
                    },
                    CoreAlt::Lit { lit, rhs } => CoreAlt::Lit {
                        lit,
                        rhs: replace_vars(rhs, map),
                    },
                    CoreAlt::Tuple { binders, rhs } => CoreAlt::Tuple {
                        binders,
                        rhs: replace_vars(rhs, map),
                    },
                    CoreAlt::Default { binder, rhs } => CoreAlt::Default {
                        binder,
                        rhs: replace_vars(rhs, map),
                    },
                })
                .collect(),
        ),
        CoreExpr::Con(con, ty_args, fields) => CoreExpr::Con(
            con,
            ty_args,
            fields.into_iter().map(|f| replace_vars(f, map)).collect(),
        ),
        CoreExpr::Prim(op, args) => {
            CoreExpr::Prim(op, args.into_iter().map(|a| replace_vars(a, map)).collect())
        }
        CoreExpr::Tuple(args) => {
            CoreExpr::Tuple(args.into_iter().map(|a| replace_vars(a, map)).collect())
        }
    }
}

/// Elaborates a whole surface module into Core.
///
/// # Errors
///
/// All diagnostics accumulated during elaboration (at least one error).
pub fn elaborate_module(module: &Module) -> Result<Elaborated, Diagnostics> {
    let mut el = Elaborator::new();
    let mut st = PassState::default();
    for pass in 0..PASSES {
        el.run_pass(pass, module, &mut st);
    }
    el.finish()
}

/// Elaboration makes this many passes over a module, each over one kind
/// of declaration (see [`Elaborator::run_pass`]), so a declaration may
/// use anything an earlier pass declared wherever it stands in the
/// source.
const PASSES: usize = 7;

/// What a pass leaves for a later one.
#[derive(Default)]
struct PassState<'m> {
    /// Declared signatures, by binding name.
    sigs: HashMap<Symbol, Type>,
    /// Registered instance headers, for the bodies' pass: class, dictionary
    /// global, head type, head representation, methods and span.
    instances: Vec<InstanceHeader<'m>>,
}

type InstanceHeader<'m> = (
    Symbol,
    Symbol,
    Type,
    RepTy,
    &'m [(Symbol, Vec<SPat>, SExpr)],
    Span,
);

/// The counters fresh names and metavariables are numbered from: names,
/// type metavariables, representation metavariables.
type Counters = [u64; 3];

fn add(a: Counters, b: Counters) -> Counters {
    std::array::from_fn(|i| a[i] + b[i])
}

fn sub(a: Counters, b: Counters) -> Counters {
    std::array::from_fn(|i| a[i] - b[i])
}

/// Where a pass left the elaborator: its counters and the lengths of its
/// program's datatype and binding lists.
#[derive(Clone, Copy, Debug, Default)]
struct PassMark {
    counters: Counters,
    data_decls: usize,
    bindings: usize,
}

impl Elaborator {
    /// Runs pass `pass` over the module's declarations.
    fn run_pass<'m>(&mut self, pass: usize, module: &'m Module, st: &mut PassState<'m>) {
        match pass {
            // Pass 0: datatypes.
            0 => {
                for decl in &module.decls {
                    if let SDecl::Data {
                        name,
                        params,
                        cons,
                        span,
                    } = decl
                    {
                        self.process_data(*name, params, cons, *span);
                    }
                }
            }
            // Pass 1: type families (§7.1): standalone representation
            // checking.
            1 => {
                for decl in &module.decls {
                    if let SDecl::TypeFamily {
                        name,
                        param,
                        result_kind,
                        equations,
                        span,
                    } = decl
                    {
                        match check_family(&self.env, *name, *param, result_kind, equations, *span)
                        {
                            Ok(info) => self.families.push(info),
                            Err(d) => self.diag(d),
                        }
                    }
                }
            }
            // Pass 2: classes (§7.3).
            2 => {
                for decl in &module.decls {
                    if let SDecl::Class {
                        name,
                        var,
                        var_kind,
                        methods,
                        span,
                    } = decl
                    {
                        self.process_class(*name, *var, var_kind, methods, *span);
                    }
                }
            }
            // Pass 3: signatures.
            3 => {
                for decl in &module.decls {
                    if let SDecl::Sig { name, ty, span } = decl {
                        match self.convert_sig(ty, *span) {
                            Ok(t) => {
                                self.env.define_global(*name, t.clone());
                                st.sigs.insert(*name, t);
                            }
                            Err(d) => self.diag(d),
                        }
                    }
                }
            }
            // Pass 4: instance headers, so every value binding can
            // resolve every instance.
            4 => {
                for decl in &module.decls {
                    if let SDecl::Instance {
                        class,
                        head,
                        methods,
                        span,
                    } = decl
                    {
                        if let Some((dict_global, head_ty, head_rep)) =
                            self.register_instance_header(*class, head, *span)
                        {
                            st.instances.push((
                                *class,
                                dict_global,
                                head_ty,
                                head_rep,
                                methods,
                                *span,
                            ));
                        }
                    }
                }
            }
            // Pass 5: value bindings in source order.
            5 => {
                for decl in &module.decls {
                    if let SDecl::Bind {
                        name,
                        params,
                        body,
                        span,
                    } = decl
                    {
                        let sig = st.sigs.get(name).cloned();
                        self.elaborate_top_bind(*name, params, body, sig.as_ref(), *span);
                    }
                }
            }
            // Pass 6: instance bodies.
            _ => {
                for (class, dict_global, head_ty, head_rep, methods, span) in
                    std::mem::take(&mut st.instances)
                {
                    self.elaborate_instance_bodies(
                        class,
                        dict_global,
                        head_ty,
                        head_rep,
                        methods,
                        span,
                    );
                }
            }
        }
    }

    /// The elaboration, or every diagnostic if any is an error.
    fn finish(self) -> Result<Elaborated, Diagnostics> {
        if self.diags.has_errors() {
            return Err(self.diags);
        }
        Ok(Elaborated {
            program: self.program,
            env: self.env,
            classes: self.classes,
            families: self.families,
            warnings: self.diags,
        })
    }

    fn mark(&self) -> PassMark {
        let (ty_metas, rep_metas) = self.unifier.meta_counters();
        PassMark {
            counters: [self.supply.names_issued(), ty_metas, rep_metas],
            data_decls: self.program.data_decls.len(),
            bindings: self.program.bindings.len(),
        }
    }
}

/// A module elaborated once, to be continued by the modules that follow
/// it in one source: the driver elaborates the prelude this way once per
/// process instead of in front of every module it compiles.
///
/// [`ModuleSeed::elaborate`] returns exactly what [`elaborate_module`]
/// returns for the seed's source followed by the module's: the same
/// bindings in the same order, the same datatypes, environments and
/// diagnostics, and fresh names and metavariables numbered alike. Every
/// pass handles the seed's declarations before the module's, so that
/// holds unless the module redeclares a name the seed binds or uses (the
/// seed's elaboration would have looked it up), or the module's earlier
/// passes would move the numbering of the seed's later ones. Those
/// modules are declined.
#[derive(Debug)]
pub struct ModuleSeed {
    /// The elaborator after the seed's last pass, its program moved out.
    el: Elaborator,
    /// The seed's own program.
    program: Program,
    /// Where each pass left the seed.
    marks: [PassMark; PASSES],
}

impl ModuleSeed {
    /// Elaborates the seed module.
    ///
    /// # Errors
    ///
    /// Every diagnostic, if there is any, warnings included: where a
    /// seed's warning falls among a later module's diagnostics depends
    /// on the pass that raised it, so a seed must elaborate cleanly.
    pub fn new(module: &Module) -> Result<ModuleSeed, Diagnostics> {
        let mut el = Elaborator::new();
        let mut st = PassState::default();
        let mut marks = [PassMark::default(); PASSES];
        for (pass, mark) in marks.iter_mut().enumerate() {
            el.run_pass(pass, module, &mut st);
            *mark = el.mark();
        }
        if !el.diags.is_empty() {
            return Err(el.diags);
        }
        let program = std::mem::take(&mut el.program);
        Ok(ModuleSeed { el, program, marks })
    }

    /// The seed's elaborated program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Does the seed bind or use `name`, as a global (class methods
    /// included), a type, a data constructor, a class, a type family, a
    /// primop or `error`?
    fn binds(&self, name: Symbol) -> bool {
        let el = &self.el;
        el.env.global(name).is_some()
            || el.env.tycon(name).is_some()
            || el.env.datacon(name).is_some()
            || el.classes.classes.contains_key(&name)
            || el.families.iter().any(|f| f.name == name)
            || el.prims.contains_key(&name)
            || name == el.error_name
    }

    /// Elaborates `module` as if it followed the seed in one source, on
    /// a clone of the seed's elaborator. `None` when the result could
    /// differ from elaborating the concatenated source — `module`
    /// declares a name the seed binds or uses (a global, type, data
    /// constructor, class, type family, primop or `error`), or draws
    /// fresh names before a pass in which the seed draws from the same
    /// counter: elaborate the concatenation instead.
    pub fn elaborate(&self, module: &Module) -> Option<Result<Elaborated, Diagnostics>> {
        if module
            .decls
            .iter()
            .any(|d| declared_names(d).into_iter().any(|n| self.binds(n)))
        {
            return None;
        }
        let mut el = self.el.clone();
        let mut st = PassState::default();
        let mut seed_at: Counters = [0; 3];
        let mut drawn: Counters = [0; 3];
        let mut marks = [PassMark::default(); PASSES];
        for (pass, mark) in marks.iter_mut().enumerate() {
            // In the concatenated source the seed's share of this pass
            // comes after the module's share of the passes before it, so
            // the seed's numbering is its own only if those drew nothing
            // from a counter this share draws from. When they did not,
            // every counter the module draws from has seen its last seed
            // draw, and the module's names continue from the seed's.
            // (The prelude draws dictionary binders in the class pass and
            // metavariables in the binding pass; no module draws either
            // in an earlier pass.)
            let seed_drew = sub(self.marks[pass].counters, seed_at);
            if (0..3).any(|c| seed_drew[c] > 0 && drawn[c] > 0) {
                return None;
            }
            seed_at = self.marks[pass].counters;
            let start = el.mark().counters;
            el.run_pass(pass, module, &mut st);
            *mark = el.mark();
            drawn = add(drawn, sub(mark.counters, start));
        }
        let own = std::mem::take(&mut el.program);
        el.program = self.interleave(own, &marks);
        Some(el.finish())
    }

    /// The program of the concatenated source: pass by pass, what the
    /// seed's share of the pass added, then what the module's added.
    fn interleave(&self, own: Program, own_marks: &[PassMark; PASSES]) -> Program {
        let mut out = Program {
            data_decls: Vec::with_capacity(self.program.data_decls.len() + own.data_decls.len()),
            bindings: Vec::with_capacity(self.program.bindings.len() + own.bindings.len()),
        };
        let mut own_data = own.data_decls.into_iter();
        let mut own_bindings = own.bindings.into_iter();
        let (mut seed_at, mut own_at) = (PassMark::default(), PassMark::default());
        for (seed, own) in self.marks.iter().zip(own_marks) {
            out.data_decls
                .extend_from_slice(&self.program.data_decls[seed_at.data_decls..seed.data_decls]);
            out.bindings
                .extend_from_slice(&self.program.bindings[seed_at.bindings..seed.bindings]);
            out.data_decls
                .extend(own_data.by_ref().take(own.data_decls - own_at.data_decls));
            out.bindings
                .extend(own_bindings.by_ref().take(own.bindings - own_at.bindings));
            (seed_at, own_at) = (*seed, *own);
        }
        out
    }
}

/// The names a declaration binds at top level, a datatype's
/// constructors and a class's methods and dictionary constructor
/// included. An instance binds nothing a module can name.
fn declared_names(decl: &SDecl) -> Vec<Symbol> {
    match decl {
        SDecl::Data { name, cons, .. } => std::iter::once(*name)
            .chain(cons.iter().map(|(c, _)| *c))
            .collect(),
        SDecl::Sig { name, .. } | SDecl::Bind { name, .. } | SDecl::TypeFamily { name, .. } => {
            vec![*name]
        }
        SDecl::Class { name, methods, .. } => [*name, dict_con_name(*name)]
            .into_iter()
            .chain(methods.iter().map(|(m, _)| *m))
            .collect(),
        SDecl::Instance { .. } => Vec::new(),
    }
}

/// The constructor of class `class`'s dictionary datatype (§7.3).
fn dict_con_name(class: Symbol) -> Symbol {
    Symbol::intern(&format!("Mk{class}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_surface::parser::parse_module;

    const SEED: &str = "class Sized a where { size :: a -> Int# }\n\
                        instance Sized Int where { size n = case n of { I# k -> k } }\n\
                        twice :: Int# -> Int#\n\
                        twice x = x +# x\n";

    fn seed() -> ModuleSeed {
        ModuleSeed::new(&parse_module(SEED).unwrap()).unwrap()
    }

    /// Everything elaborated, names and order included.
    fn render(e: &Elaborated) -> String {
        format!("{:?}\n{:?}", e.program, e.warnings)
    }

    #[test]
    fn a_module_after_the_seed_elaborates_as_the_concatenation_does() {
        let module = "data Box = Box Int#\n\
                      unbox b = case b of { Box k -> k }\n\
                      instance Sized Box where { size = unbox }\n\
                      main :: Int#\n\
                      main = twice (size (Box 2#)) +# size (I# 3#)\n";
        let seeded = seed()
            .elaborate(&parse_module(module).unwrap())
            .expect("follows the seed")
            .unwrap();
        let whole = elaborate_module(&parse_module(&format!("{SEED}{module}")).unwrap()).unwrap();
        assert_eq!(render(&seeded), render(&whole));
    }

    #[test]
    fn a_module_redeclaring_a_seed_name_is_declined() {
        let seed = seed();
        for module in [
            "twice :: Int# -> Int#\ntwice x = x\n",
            "class Sized a where { size :: a -> Int# }\n",
            "data T = MkSized\n",
            "error :: Int#\nerror = 1#\n",
        ] {
            assert!(
                seed.elaborate(&parse_module(module).unwrap()).is_none(),
                "{module}"
            );
        }
    }

    #[test]
    fn a_module_that_would_renumber_the_seed_is_declined() {
        // This seed draws a fresh binder for `_` in an instance body,
        // the last pass; a module class draws dictionary binders in an
        // earlier pass, which in one source would come first.
        let late = "class C a where { m :: a -> Int# }\n\
                    instance C Int where { m _ = 0# }\n";
        let seed = ModuleSeed::new(&parse_module(late).unwrap()).unwrap();
        for module in [
            "class D a where { d :: a -> a }\n",
            // A method call draws a dictionary placeholder in the
            // binding pass, also before the seed's instance bodies.
            "main :: Int#\nmain = m (I# 1#)\n",
        ] {
            assert!(
                seed.elaborate(&parse_module(module).unwrap()).is_none(),
                "{module}"
            );
        }
        let plain = "main :: Int#\nmain = 1#\n";
        assert!(seed.elaborate(&parse_module(plain).unwrap()).is_some());
    }
}
