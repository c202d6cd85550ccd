//! Quickstart: assemble a small VAX program, run it on the simulated
//! 11/780 with the µPC histogram monitor attached, and print where the
//! cycles went.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use vax780::{ProcessSpec, SystemBuilder, SystemConfig};
use vax_analysis::{tables, validate, Analysis};
use vax_asm::parse;

fn main() {
    // A little program in VAX MACRO-ish assembly: sum an array.
    let source = r#"
        entry:  MOVL  #100, R2        ; outer iterations
        outer:  CLRL  R0
                MOVL  #64, R3         ; elements
                MOVL  #4096, R6       ; array base (mapped data page)
        sum:    ADDL2 (R6)+, R0
                SOBGTR R3, sum
                MOVL  R0, @#4092      ; store the total
                SOBGTR R2, outer
                MOVL  #100, R2
                BRW   outer
    "#;
    let image = parse(source, 0x200).expect("assembly failed");

    let mut builder = SystemBuilder::new(SystemConfig::default());
    builder.add_process(ProcessSpec::new(image, "entry").with_bss_pages(32));
    let mut system = builder.build();

    // The paper's procedure: warm up, clear, measure.
    let m = system.measure(5_000, 100_000);
    let validation = validate(system.cpu.cs, &m);
    assert!(validation.is_clean(), "{}", validation.render());
    let a = Analysis::new(system.cpu.cs, &m);

    println!("instructions : {}", a.instructions);
    println!("cycles       : {}", a.cycles);
    println!(
        "CPI          : {:.2}  (the paper's composite: 10.6)",
        a.cpi()
    );
    println!();
    println!("{}", tables::table8(&a).text());
}
