//! Every benchmark must survive the textual round trip: print → parse →
//! print identity, and identical interpreter behaviour.

use epvf_interp::{ExecConfig, Interpreter};
use epvf_ir::parse_module;
use epvf_workloads::{extended_suite, Scale, Workload};

#[test]
fn all_workloads_round_trip_textually() {
    for w in extended_suite(Scale::Tiny) {
        let text = w.module.to_string();
        let parsed =
            parse_module(&text).unwrap_or_else(|e| panic!("{}: parse failed: {e}", w.name));
        assert_eq!(parsed.to_string(), text, "{}: reprint differs", w.name);
    }
}

#[test]
fn parsed_workloads_behave_identically() {
    for w in extended_suite(Scale::Tiny) {
        let parsed = parse_module(&w.module.to_string()).expect("parses");
        let orig = w.run();
        let re = Interpreter::new(&parsed, ExecConfig::default())
            .run(Workload::ENTRY, &w.args, None)
            .expect("runs");
        assert_eq!(orig.outputs, re.outputs, "{}", w.name);
        assert_eq!(orig.dyn_insts, re.dyn_insts, "{}", w.name);
    }
}
