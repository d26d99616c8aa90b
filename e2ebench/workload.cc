// End-to-end analysis benchmark -- workloads and witness checking.

#include "e2ebench/workload.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "proto/spec/lower.h"
#include "proto/spec/spec.h"
#include "proto/synth/synth_family.h"
#include "support/logging.h"

namespace achilles {
namespace e2e {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

void
DigestBytes(uint64_t *h, const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        *h ^= p[i];
        *h *= 1099511628211ull;
    }
}

ProtocolSource
FactorySource(std::shared_ptr<const proto::ProtocolFactory> factory)
{
    ProtocolSource source;
    source.name = factory->info().name;
    source.oracle = factory->MakeConcreteOracle();
    source.make = [factory] { return factory->Make(); };
    return source;
}

/** The corpus draws: DefaultCorpus's knob cells, seeds offset by the
 *  run's seed (seed 0 is the registry's corpus). */
std::vector<synth::FamilyKnobs>
CorpusKnobs(uint64_t seed)
{
    std::vector<synth::FamilyKnobs> knobs = synth::DefaultCorpus();
    for (synth::FamilyKnobs &k : knobs)
        k.seed += seed;
    return knobs;
}

bool
SpecSource(const std::string &path, ProtocolSource *out,
           std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    spec::ProtocolSpec parsed;
    spec::SpecError spec_error;
    if (!spec::ParseSpec(text.str(), path, &parsed, &spec_error)) {
        *error = spec_error.Format(path);
        return false;
    }
    out->name = parsed.name;
    // Setup re-parses and lowers the text on every pass: that is the
    // spec frontend's share of the workload's set-up cost.
    out->make = [text = text.str(), path] {
        spec::ProtocolSpec spec;
        spec::SpecError err;
        ACHILLES_CHECK(spec::ParseSpec(text, path, &spec, &err),
                       err.Format(path));
        return spec::BuildProtocol(spec);
    };
    return true;
}

}  // namespace

bool
MakeWorkload(const std::string &name, uint64_t seed,
             const std::string &root, Workload *out, std::string *error)
{
    *out = Workload();
    out->name = name;
    if (name == "fsp") {
        // A fixed protocol: the seed does not change the input.
        const auto factory = proto::ProtocolRegistry::Global().Find("fsp");
        if (factory == nullptr) {
            *error = "protocol fsp is not registered";
            return false;
        }
        out->protocols.push_back(FactorySource(factory));
        return true;
    }
    if (name == "corpus") {
        for (const synth::FamilyKnobs &knobs : CorpusKnobs(seed))
            out->protocols.push_back(
                FactorySource(synth::MakeFamilyFactory(knobs)));
        for (const char *spec : {"examples/kv_union.spec",
                                 "examples/sensor_tlv.spec"}) {
            ProtocolSource source;
            if (!SpecSource(root + "/" + spec, &source, error))
                return false;
            out->protocols.push_back(std::move(source));
        }
        return true;
    }
    if (name == "deep-par4") {
        // Depth-6 dispatch (64 leaves, so 64 client paths) with and
        // without wide handler fan-out; four workers in phase 2.
        out->workers = 4;
        synth::FamilyKnobs a;
        a.dispatch_depth = 6;
        a.handler_fanout = 2;
        a.field_coupling = 0.75;
        a.validation_density = 0.75;
        a.seed = seed;
        synth::FamilyKnobs b = a;
        b.handler_fanout = 4;
        b.validation_density = 0.25;
        for (const synth::FamilyKnobs &knobs : {a, b})
            out->protocols.push_back(
                FactorySource(synth::MakeFamilyFactory(knobs)));
        return true;
    }
    *error = "unknown workload '" + name + "'";
    return false;
}

bool
CorpusMatchesRegistry(std::string *error)
{
    std::vector<std::string> drawn;
    for (const synth::FamilyKnobs &knobs : CorpusKnobs(0))
        drawn.push_back(synth::ProtocolName(knobs));
    std::sort(drawn.begin(), drawn.end());
    std::vector<std::string> registered;
    for (const std::string &name : proto::ProtocolRegistry::Global().Names())
        if (name.rfind("synth/", 0) == 0)
            registered.push_back(name);
    if (drawn == registered)
        return true;
    *error = "corpus draws at seed 0 (" + std::to_string(drawn.size()) +
             ") differ from the registry's synth/ protocols (" +
             std::to_string(registered.size()) + ")";
    return false;
}

uint64_t
WitnessDigest(const core::ServerAnalysis &analysis)
{
    std::vector<uint64_t> per_witness;
    per_witness.reserve(analysis.trojans.size());
    for (const core::TrojanWitness &t : analysis.trojans) {
        uint64_t h = kFnvOffset;
        DigestBytes(&h, &t.server_path_id, sizeof(t.server_path_id));
        DigestBytes(&h, t.accept_label.data(), t.accept_label.size());
        DigestBytes(&h, t.concrete.data(), t.concrete.size());
        const uint64_t def_size = t.definition.size();
        DigestBytes(&h, &def_size, sizeof(def_size));
        DigestBytes(&h, t.message_vars.data(),
                    t.message_vars.size() * sizeof(uint32_t));
        per_witness.push_back(h);
    }
    std::sort(per_witness.begin(), per_witness.end());
    uint64_t digest = kFnvOffset;
    for (uint64_t h : per_witness)
        DigestBytes(&digest, &h, sizeof(h));
    return digest;
}

std::string
DigestKey(const std::string &workload, uint64_t seed,
          const std::string &protocol)
{
    return workload + " " + std::to_string(seed) + " " + protocol;
}

bool
LoadExpectedDigests(const std::string &path,
                    std::map<std::string, ExpectedWitnesses> *out,
                    std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::string workload, protocol, hex;
        uint64_t seed = 0;
        size_t witnesses = 0;
        if (!(fields >> workload))
            continue;
        std::string rest;
        if (!(fields >> seed >> protocol >> witnesses >> hex) ||
            (fields >> rest) || hex.size() != 16 ||
            hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
            *error = path + ":" + std::to_string(line_no) +
                     ": expected '<workload> <seed> <protocol> "
                     "<witnesses> <16 hex digits>'";
            return false;
        }
        ExpectedWitnesses expected;
        expected.witnesses = witnesses;
        expected.digest = std::stoull(hex, nullptr, 16);
        (*out)[DigestKey(workload, seed, protocol)] = expected;
    }
    return true;
}

}  // namespace e2e
}  // namespace achilles
