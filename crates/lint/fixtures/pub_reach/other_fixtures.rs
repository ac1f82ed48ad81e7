//! Fixture: names every public item of the single-rule fixtures, as the
//! rest of a workspace would, so each of them fires only its own rule.

fn callers() {
    missing_reason(&[]);
    unknown_rule(&[]);
    clean();
    budget();
    head(&[]);
    pair(&[]);
    chained(&[]);
    read_config();
    knob();
    dial();
    doc_mention();
    raw_literal();
    char_not_lifetime(&[]);
    fx_is_legal;
    allowed(&[]);
    allowed_stacked(None);
    tally(&[]);
    uniq(&[]);
    first(&[]);
    must(None);
    boom();
    later();
    fresh_root();
    ambient();
    os_backed();
    lane_id();
    workers();
    sneaky_monotonic();
    sneaky_wall();
    no_forbid_here();
}
