//! The IL text format round-trips the nine DaCapo-shaped programs: printing
//! a built program and parsing it back gives a program that prints the
//! same text and has the same context-insensitive points-to projection.
//! The generated programs declare fields (`store`, `value`, ...) in many
//! classes, so this pins the printer's `Class.name` qualification of
//! shared member names and the parser's resolution of both forms.

use std::collections::HashMap;

use rudoop_core::policy::Insensitive;
use rudoop_core::solver::{analyze, SolverConfig};
use rudoop_ir::{parse_program, print_program, AllocId, ClassHierarchy, Instruction, Program};
use rudoop_workloads::dacapo;

/// The insensitive projection with every id replaced by a name that does
/// not depend on id order: variables and methods by their display name,
/// allocation sites by enclosing method and position among its
/// allocations, fields and globals by `Class.name`. Sorted lines.
fn projection(p: &Program) -> Vec<String> {
    let mut site: HashMap<AllocId, String> = HashMap::new();
    for (mid, m) in p.methods.iter() {
        let allocs = m.body.iter().filter_map(|i| match *i {
            Instruction::Alloc { alloc, .. } => Some(alloc),
            _ => None,
        });
        for (k, alloc) in allocs.enumerate() {
            site.insert(alloc, format!("{}#{k}", p.method_display(mid)));
        }
    }
    let sites = |pts: &[AllocId]| {
        let mut names: Vec<&str> = pts.iter().map(|h| site[h].as_str()).collect();
        names.sort_unstable();
        names.join(", ")
    };
    let h = ClassHierarchy::new(p);
    let r = analyze(p, &h, &Insensitive, &SolverConfig::default());
    assert!(r.outcome.is_complete());
    let mut lines: Vec<String> = Vec::new();
    for (v, pts) in r.var_pts.iter() {
        lines.push(format!("var {} -> {}", p.var_display(v), sites(pts)));
    }
    for (&(base, f), pts) in &r.field_pts {
        let field = &p.fields[f];
        let class = &p.classes[field.class].name;
        lines.push(format!(
            "field {}.{class}.{} -> {}",
            site[&base],
            field.name,
            sites(pts)
        ));
    }
    for (&g, pts) in &r.global_pts {
        let global = &p.globals[g];
        let class = &p.classes[global.class].name;
        lines.push(format!("global {class}.{} -> {}", global.name, sites(pts)));
    }
    for m in r.reachable_methods.iter() {
        lines.push(format!("reachable {}", p.method_display(m)));
    }
    lines.sort_unstable();
    lines
}

#[test]
fn print_parse_round_trips_the_nine_workloads() {
    for spec in dacapo::all_nine() {
        let built = spec.build();
        let text = print_program(&built);
        let parsed = parse_program(&text)
            .unwrap_or_else(|e| panic!("{}: printed program does not parse: {e}", spec.name));
        assert_eq!(print_program(&parsed), text, "{}: print ∘ parse", spec.name);
        assert_eq!(
            projection(&parsed),
            projection(&built),
            "{}: insens projection",
            spec.name
        );
    }
}
