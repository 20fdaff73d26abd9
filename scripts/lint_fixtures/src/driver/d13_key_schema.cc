// Fixture: D13 key schema. The literal field names of a `cache_key`
// root must be exactly CACHE_KEYS of the kind it names (env.* gates
// aside). Never compiled; consumed by starnuma_taint.py --self-test.

namespace starnuma
{

// lint: artifact-root cache_key
std::string
d13FixtureTraceKey(const std::string &workload)
{
    std::string k;
    field(k, "kind", std::string("step_a_trace"));
    field(k, "workload.name", workload);
    field(k, "workload.parameters", std::string("builtin"));
    field(k, "scale", std::string("fixture"));
    field(k, "trace.format_version", std::string("2"));
    field(k, "code.epoch", std::string("fixture"));
    field(k, "host.name", std::string("fixture")); // expect-lint: D13
    field(k, "env.STARNUMA_THREADS", std::string("invariant"));
    return k;
}

} // namespace starnuma
