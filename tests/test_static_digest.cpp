// Byte pins for every engine that reads the gate algebra: the constant
// prover (forward, proved, probe counters), the structural hasher with the
// proved constants folded in, fault collapsing with the untestability
// prover, the linter, and (up to 16 inputs) the BDD builder. Each circuit's
// results are dumped as text and pinned by SHA-256, node by node, so a
// rewrite of any of those engines that moves one implication, one hasher
// id, one fault class or one BDD ref fails here.
//
// Covered: the standard and scale suites, every harden_transform variant
// of c17, c432 and mult8 (all enumerate_candidates configs, both voter
// styles), deep NOT and AND/OR chains, and seeded random DAGs over all gate
// types with constant nodes mixed in, so that every type meets controlling
// and non-controlling constants.
//
// To re-pin after an *intentional* change: run this test, copy the
// "actual" digests from the failure messages, and update the tables in the
// same change that explains why the bytes moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/static_reason.hpp"
#include "bdd/bdd.hpp"
#include "bdd/circuit_to_bdd.hpp"
#include "fault/fault_model.hpp"
#include "gen/iscas.hpp"
#include "gen/multipliers.hpp"
#include "gen/suite.hpp"
#include "harden/pareto.hpp"
#include "harden/transform.hpp"
#include "netlist/circuit.hpp"
#include "sim/prng.hpp"
#include "synth/structural_hasher.hpp"
#include "util/sha256.hpp"

namespace enb::analysis {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;
using synth::StructuralHasher;

template <typename T>
void put_row(std::ostringstream& out, const char* label,
             const std::vector<T>& values) {
  out << label;
  for (const T& v : values) out << ' ' << static_cast<std::uint64_t>(v);
  out << '\n';
}

std::string static_digest(const Circuit& c) {
  std::ostringstream out;
  const ConstantFacts facts = analyze_constants(c);
  put_row(out, "forward", facts.forward);
  put_row(out, "proved", facts.proved);
  out << "probes " << facts.probes << " learned " << facts.learned
      << " rounds " << facts.probe_rounds << '\n';

  StructuralHasher hasher(c.num_inputs());
  put_row(out, "hash", hasher.hash_circuit(c, &facts.proved));

  const auto universe = fault::FaultUniverse::build(c, true, true);
  std::vector<std::size_t> classes;
  for (std::size_t s = 0; s < universe.num_sites(); ++s) {
    classes.push_back(universe.class_of(s));
  }
  put_row(out, "class_of", classes);
  std::vector<bool> untestable;
  for (std::size_t k = 0; k < universe.num_classes(); ++k) {
    untestable.push_back(universe.class_untestable(k));
  }
  put_row(out, "untestable", untestable);

  write_lint_text(out, lint_circuit(c));

  if (c.num_inputs() <= 16) {
    bdd::Bdd manager(static_cast<unsigned>(c.num_inputs()));
    put_row(out, "bdd", bdd::build_node_bdds(manager, c));
  }
  return util::sha256_hex(out.str());
}

struct Pin {
  const char* name;
  const char* sha256;
};

// Checks entry `index` of `table`; an entry past the end fails with the
// row to paste, so a table can be (re)recorded from one run.
template <std::size_t N>
void expect_pin(const Pin (&table)[N], std::size_t index,
                const std::string& name, const std::string& digest) {
  if (index >= N) {
    ADD_FAILURE() << "unpinned {\"" << name << "\", \"" << digest << "\"},";
    return;
  }
  EXPECT_EQ(name, table[index].name);
  EXPECT_EQ(digest, table[index].sha256) << name;
}

// ---- suite circuits --------------------------------------------------------

const Pin kSuitePins[] = {
    {"c17",
     "8aff9c3f0583906ab1cd8094f227c22d2bb0789ec123202a04e535d3e2c993ad"},
    {"parity8",
     "97d82924434471ff73c17ab9d3e61ef68de9f22f8a3d536403212f50ce5d0156"},
    {"parity16",
     "65ae87c8bed47ecd97fd6ffd76b24cf61a3b3b66e1a28c64849af247a8f6cb08"},
    {"rca8",
     "0fe19d723ec61c86d20eaed5515a89ceb99d6e92c99ef8f4c0863c79b0c6de22"},
    {"rca16",
     "196a5b930e2305e43cb8306def6063e37fadacee1bb178695b5c58f3f956b2d9"},
    {"rca32",
     "8f5a397511c2b5ba56f9c0ad2e255e50efa4c85dbf0b96fcda46e0b1d21535ac"},
    {"cla16",
     "0f02d74218dbe91f3eba68b4922c48becdba6e12ce40ec638623ba04a371a174"},
    {"csel16",
     "8832d513a683d35b660aa7674c84a792f98069d9eecaac82ed9f2c1d02ce0357"},
    {"mult4",
     "a2fe26ac85f53c2a6bcf6ab8ccf1d630b65d4d6db54cab1c3519f8aad8a1b8a9"},
    {"mult8",
     "3fe69202b3be5ad78ab7faad3b11551b409d64807af25b8b3c9d37aae67dee12"},
    {"cmp16",
     "93b2aa829ec74c85caf3ca87dc5368d1be53696f9be52d020a966369ac10b0ba"},
    {"alu8",
     "373b3556b562dab708b584304a8febdcbfafcb6118d8ca8d8e69475816fb2dbf"},
    {"c432",
     "d16a2f489509c556efcf3c40942c821d11e1b548c483d4cdf6febcf1ab95346a"},
    {"rca256",
     "938de1606a3001a56770afc4d1832d25f30a740fd08f7da1b38a09e32269cb60"},
    {"csel64",
     "6ee7cd57ce23c84a1bbdb7c0863078be5f099501abeb56225fb9adb982384a6b"},
    {"mult16",
     "5ba94e9132c2ec864afa3ffca0bdfdbdd8b143d67043d9eca124be272078bc8a"},
    {"alu64",
     "452f3a3d92a690d701b5e1bd94556c175765028b9ca2617f90e39bac67bca987"},
};

TEST(StaticDigest, SuiteCircuitsMatchTable) {
  std::vector<gen::BenchmarkSpec> specs = gen::standard_suite();
  for (auto& spec : gen::scale_suite()) specs.push_back(std::move(spec));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_pin(kSuitePins, i, specs[i].name, static_digest(specs[i].build()));
  }
  EXPECT_EQ(specs.size(), std::size(kSuitePins));
}

// ---- hardened variants -----------------------------------------------------

std::string variant_name(const char* base, const harden::TransformOptions& t) {
  std::ostringstream name;
  name << base << '/' << harden::to_string(t.style) << '/'
       << harden::to_string(t.granularity) << "/k" << t.top_k
       << (t.voter == ft::VoterStyle::kMajGate ? "/maj" : "/two-input");
  return name.str();
}

const Pin kHardenedPins[] = {
    {"c17/tmr/gate/k0/maj",
     "ce4412c8b3e79977d0f50898e5d1f2f6e00237b5bf28d299583e010d85493762"},
    {"c17/tmr/cone/k0/maj",
     "db22cedf4f80ccc24e77edd0aed5f1ad89589a26b536ca513c4c28e02f6e2622"},
    {"c17/tmr/output/k0/maj",
     "f6e6af441cf4b8d2337bc7494c58783a90677a50623f340a7bf225fc7b7cb9f3"},
    {"c17/dwc/gate/k0/maj",
     "852e2d0db6e52b96c8b249f5ad7e0797be2603258cd1b047b2975446f7e95366"},
    {"c17/dwc/cone/k0/maj",
     "56b367e01893538151d86032e74afb9a7495555583f4613f47ea3d456b05937a"},
    {"c17/dwc/output/k0/maj",
     "a72ca7db9a2cdbdd3eaa7d3a50db5b30c99a0bdddb0514746609bef9234585b6"},
    {"c17/selective/gate/k1/maj",
     "85fd2e0f4f8de9f027023bb439a440d51cb179dad2f470866d2e8102025645a5"},
    {"c17/selective/cone/k1/maj",
     "51045461bcf60c9d825b8cb4071b3759f3517a900ddd82226386b0b451b08737"},
    {"c17/selective/output/k1/maj",
     "51045461bcf60c9d825b8cb4071b3759f3517a900ddd82226386b0b451b08737"},
    {"c17/tmr/gate/k0/two-input",
     "4aedbcca04429353ce9e616ad49b5294e0fc09d7408062ffde4ca4020ecf987d"},
    {"c17/tmr/cone/k0/two-input",
     "3b84b250f543b91408c5dacf60d89c95989ed8583c5db14e3d59bc83aa0db01a"},
    {"c17/tmr/output/k0/two-input",
     "b681ffa339d24108eb03e7fe8e32b9078b46b9ab31aea60b01c60fbfcb7c7d89"},
    {"c17/dwc/gate/k0/two-input",
     "852e2d0db6e52b96c8b249f5ad7e0797be2603258cd1b047b2975446f7e95366"},
    {"c17/dwc/cone/k0/two-input",
     "56b367e01893538151d86032e74afb9a7495555583f4613f47ea3d456b05937a"},
    {"c17/dwc/output/k0/two-input",
     "a72ca7db9a2cdbdd3eaa7d3a50db5b30c99a0bdddb0514746609bef9234585b6"},
    {"c17/selective/gate/k1/two-input",
     "adb1c88e68bf8c87d16083d230910bd407a2ceec56a0a38424d2438bcd38a314"},
    {"c17/selective/cone/k1/two-input",
     "05b6264c1b511182eb5ca0d7c487ef371d782b77adb31ff77cbeaff9dfe3717f"},
    {"c17/selective/output/k1/two-input",
     "05b6264c1b511182eb5ca0d7c487ef371d782b77adb31ff77cbeaff9dfe3717f"},
    {"c432/tmr/gate/k0/maj",
     "95f0d1c1443c9de832b86a83408683633bcaa0e7eef73cc9959100e7cffb5fdf"},
    {"c432/tmr/cone/k0/maj",
     "ee28f096ab7d6343777530e277fea6c0de2ac91dd4cf4908e551fdc6df930eab"},
    {"c432/tmr/output/k0/maj",
     "c4acffbddc4a835077749e4525aefba1ef361a115cc4dce90083d4ea9467c2f2"},
    {"c432/dwc/gate/k0/maj",
     "c7ca93f5767b242d9af7af07d174118a57497cfe3d249c8d065d9f744f60b654"},
    {"c432/dwc/cone/k0/maj",
     "925d689fb9fb6938a392f872ba9358750091fff2dd5360a7306df849156ca0d2"},
    {"c432/dwc/output/k0/maj",
     "d11e015d22ca0efd2552a06f749d4d5a79c17e8946615c6187dd1af2010dc8d5"},
    {"c432/selective/gate/k1/maj",
     "1b36cee5eae888c693a83b37fe207347bde2bbd709a35c3754129e4060d26e08"},
    {"c432/selective/gate/k2/maj",
     "a6fc4553bd5eab07c842c53c698d3520cb3502a4374299d2519127a6159a5cc3"},
    {"c432/selective/gate/k4/maj",
     "6f9e679f4d7fc324ebb407411b996a428df7cc1f00a221126e8e7211cec36578"},
    {"c432/selective/cone/k1/maj",
     "61e3336c8e860189bcecd9e18edd9ef0f8aeea0118ae3eb095134abc7e531edc"},
    {"c432/selective/cone/k2/maj",
     "479dae61c9b6a91f470d6b3aa03d123be25f6f8e40de3fdded09008805717e59"},
    {"c432/selective/cone/k4/maj",
     "065fc03545b9f87e15c97a66e0445b3554b3bdf6894c7b6c68ffafb115c685d4"},
    {"c432/selective/output/k1/maj",
     "9535e6d6f69b895adf465e6f4d98e9f22066472f8757e18dadc82274c3e230d9"},
    {"c432/selective/output/k2/maj",
     "4fc8fcc48b589127729d694bc17b3d72c5895bb0d36f9da3c798bb0938fd87fb"},
    {"c432/selective/output/k4/maj",
     "fd09bc75e9711e9a22cb5821905cb05b9567e9ea7e850fa3b27380b831ec42af"},
    {"c432/tmr/gate/k0/two-input",
     "04d1e869429fd6cf88de3815869de349140d18ec75fe9aa948e4b3a86c71cbc6"},
    {"c432/tmr/cone/k0/two-input",
     "4967ed5a6333f9445073eb321e65e345fbd157ae01246d8bd5160e61a7c15947"},
    {"c432/tmr/output/k0/two-input",
     "aa4f544bc0573f8aeca8d93dbc894868eb3628b34b2a1cea7e0d39be30f5f9e3"},
    {"c432/dwc/gate/k0/two-input",
     "c7ca93f5767b242d9af7af07d174118a57497cfe3d249c8d065d9f744f60b654"},
    {"c432/dwc/cone/k0/two-input",
     "925d689fb9fb6938a392f872ba9358750091fff2dd5360a7306df849156ca0d2"},
    {"c432/dwc/output/k0/two-input",
     "d11e015d22ca0efd2552a06f749d4d5a79c17e8946615c6187dd1af2010dc8d5"},
    {"c432/selective/gate/k1/two-input",
     "f5ca9ba913ec8ebfb8d4d9bde828fa333b3735fd8c31add675418381e3f5d100"},
    {"c432/selective/gate/k2/two-input",
     "92d2c9e53a7efe20dd0cb40b0878f7e13fd7dc67c9ed2de9994260d9b9d47009"},
    {"c432/selective/gate/k4/two-input",
     "64fbeae2a6decdc27572ab9539078573e96fb5e051298497ee922d52867ee969"},
    {"c432/selective/cone/k1/two-input",
     "98f992ccd398649286bfbc6cb3526f273a9b546e548ff11c5094c5d7e9fb733f"},
    {"c432/selective/cone/k2/two-input",
     "603dcc83a276d69336e71eaa35166192c506a274ba41dede9aba0f8ff6b57370"},
    {"c432/selective/cone/k4/two-input",
     "1475385b03ad1770bbe1673291f9dd047fb7b63ccdfd3e0e41137e322595b2d3"},
    {"c432/selective/output/k1/two-input",
     "22dcacb32ee270be44ee592e8b5eadf9fe415fd6352086bd60de11566f25c0f0"},
    {"c432/selective/output/k2/two-input",
     "55eddcedb96d50a87f2305e757e491f5b7859754dfe5d379d6f6506d80912d48"},
    {"c432/selective/output/k4/two-input",
     "f36c7766655f13ceb1f64f97e7942a0ebc53f039048d20665fc1c59c840b1a54"},
};

// Checks every enumerate_candidates config of `base`, both voter styles,
// against `table` from entry `next` on, advancing `next`.
template <std::size_t N>
void expect_variant_pins(const Pin (&table)[N], std::size_t& next,
                         const char* base_name, const Circuit& base) {
  for (const ft::VoterStyle voter :
       {ft::VoterStyle::kMajGate, ft::VoterStyle::kTwoInput}) {
    harden::SweepOptions options;
    options.voter = voter;
    for (const harden::TransformOptions& t :
         harden::enumerate_candidates(base.num_outputs(), options)) {
      const std::string name = variant_name(base_name, t);
      expect_pin(table, next++, name,
                 static_digest(harden::harden_transform(base, t).circuit));
    }
  }
}

TEST(StaticDigest, HardenedVariantsMatchTable) {
  std::size_t next = 0;
  expect_variant_pins(kHardenedPins, next, "c17", gen::c17());
  expect_variant_pins(kHardenedPins, next, "c432", gen::c432());
  EXPECT_EQ(next, std::size(kHardenedPins));
}

const Pin kMult8HardenedPins[] = {
    {"mult8/tmr/gate/k0/maj",
     "1191a5f575af5db3d8f7025d16c2e89b9b7bc697280507ff3b018f6dc9d159be"},
    {"mult8/tmr/cone/k0/maj",
     "ba6c09b98325e6786aa784fe8ff1b1fdd3a1c841970004cb657de5fcdd38ae1f"},
    {"mult8/tmr/output/k0/maj",
     "8ec3d9dbff44086028deecd438a4cc63d7acf40ad3899ef1cdd695ff643eda13"},
    {"mult8/dwc/gate/k0/maj",
     "c7b8278b98e424bbf4b8760bbd6f54e0a3532e5df5aa3afab770f1476d60da62"},
    {"mult8/dwc/cone/k0/maj",
     "80c015ec3f2db39cbe4c74bffff8f8021183b1f8724a1d0d1f3f39d53c1e239d"},
    {"mult8/dwc/output/k0/maj",
     "f406aa59cba0bcfe99fa78ecdfe4fdf944937dbc2a9273d169ed7f6e08c03669"},
    {"mult8/selective/gate/k1/maj",
     "c08a4105c7847e3554a4857806589e063c8eeb76eec110dbe7d239ed2e94953d"},
    {"mult8/selective/gate/k2/maj",
     "632b0fee54b0d41b5c854859ce2817c827795b930bdc7634dc4fc0da4642105d"},
    {"mult8/selective/gate/k4/maj",
     "5c51ebd3593325b3f7fa16bb66d5c8e77837a6644b22cbf3e28348791e7be30f"},
    {"mult8/selective/gate/k8/maj",
     "332956a5982b2d5c8cbf3a9834c3107ea976c94bebfb7c6b617efea5b41719bf"},
    {"mult8/selective/cone/k1/maj",
     "dfd86cb5944b4f03503ae0bf1152d97fce6b56ff7b50bc60e8328ae70e8988cd"},
    {"mult8/selective/cone/k2/maj",
     "1f8d889f65bc4c55d6b7a1c084c759fce234220d19fad269d28156d12170ced2"},
    {"mult8/selective/cone/k4/maj",
     "2ae8c0eaa7ba4dbb40835133802e206ded364d0ce54f9107484289da3c838230"},
    {"mult8/selective/cone/k8/maj",
     "decdd5f5f0822e090c7201a13e04f3210fa03369b0c111d31922b0069067315b"},
    {"mult8/selective/output/k1/maj",
     "e3a7ce9340e531279522f6891556a7330ad2808bc1d70696cf5de3a262c0a55f"},
    {"mult8/selective/output/k2/maj",
     "42b5d4d572b080ff8e4750302ffb6386beb407bc77a0f3051c2ae55473dabd97"},
    {"mult8/selective/output/k4/maj",
     "edaac33e80600e2224ea182a51e7203f4c4520488e50ed2822878236522ef386"},
    {"mult8/selective/output/k8/maj",
     "8b4ec9463c3efcf713c03705ab04bca852b12866559d1bb7e3ef927e38faa42e"},
    {"mult8/tmr/gate/k0/two-input",
     "7ddad84a08ebc0cd633eb25a9e440eab3d3c85781d761b643f13f6a28f82bb52"},
    {"mult8/tmr/cone/k0/two-input",
     "d9fabb202dd26c923d81f976353a839063b47cb17d47df520650b6add1b520e6"},
    {"mult8/tmr/output/k0/two-input",
     "a219b8f30f4ea8f5dacf9a82791fa60c6e48f0de9319bf768d68a40ba806f416"},
    {"mult8/dwc/gate/k0/two-input",
     "c7b8278b98e424bbf4b8760bbd6f54e0a3532e5df5aa3afab770f1476d60da62"},
    {"mult8/dwc/cone/k0/two-input",
     "80c015ec3f2db39cbe4c74bffff8f8021183b1f8724a1d0d1f3f39d53c1e239d"},
    {"mult8/dwc/output/k0/two-input",
     "f406aa59cba0bcfe99fa78ecdfe4fdf944937dbc2a9273d169ed7f6e08c03669"},
    {"mult8/selective/gate/k1/two-input",
     "176a635f261cb4133ab25221b454b8c2d4292ab538632b47d472807c16e14e8c"},
    {"mult8/selective/gate/k2/two-input",
     "38d9cb12af216028207f5e2a801b80a0d58b72520bebdf73de97b47be1c97ec2"},
    {"mult8/selective/gate/k4/two-input",
     "7fa498d1e3d4f6b31ba7265ebbea97b2794c771c16c570eb9c5057d3f8e67468"},
    {"mult8/selective/gate/k8/two-input",
     "3dca5c531546a025625f79f77c1ab2515c2543101c16a7f35bbdd622e34d8b19"},
    {"mult8/selective/cone/k1/two-input",
     "211e7be2b9f51128bfcbf027ddb415420679d17acd45b568c07d500e953cacbd"},
    {"mult8/selective/cone/k2/two-input",
     "e598f26caf8c30d4399f3b62c5ba532eee59ffb5dfeef5369f42aa8353357027"},
    {"mult8/selective/cone/k4/two-input",
     "62693ac5417e161696664c1f03d6e033f32fb2fb1ee455168dc7f77bcf4d5aca"},
    {"mult8/selective/cone/k8/two-input",
     "3853d237dfef0208d7b2ff977ea95d8060e0ab8aee63462dc6d37b12467ddeea"},
    {"mult8/selective/output/k1/two-input",
     "4d6b2b3a787098fa31340a32ceae78106ad283ae5517f2632d8c2c77ba2e49b3"},
    {"mult8/selective/output/k2/two-input",
     "ba502213ce28935ea20f206e9b02981f2bc8d18621ffb4b1ebe9f8b4b179496b"},
    {"mult8/selective/output/k4/two-input",
     "855d8b7e9e9f81d42168092dad2eb73abaed0ea77bf241864e29e1e41b51181b"},
    {"mult8/selective/output/k8/two-input",
     "efa26b17eb3fa7bdeb72f2f9df2886205af4dcabf29e07ec8cd76a1b62d378c5"},
};

// mult8 has 16 outputs, so its selective ladder reaches k = 8, and each
// variant is large enough (over a thousand gates for TMR) that probing and
// the BDDs work through many levels.
TEST(StaticDigest, HardenedMult8VariantsMatchTable) {
  std::size_t next = 0;
  expect_variant_pins(kMult8HardenedPins, next, "mult8",
                      gen::array_multiplier(8));
  EXPECT_EQ(next, std::size(kMult8HardenedPins));
}

// ---- random DAGs with constants --------------------------------------------

std::string label(const char* prefix, std::uint64_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

// Every gate type at every legal small arity, fanins drawn from inputs,
// both constants and earlier gates (repeats allowed), so partial evaluation,
// backward implication, hashing and collapsing meet each algebra with
// controlling, non-controlling and duplicated operands.
Circuit random_with_constants(std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  Circuit c(label("randk_s", seed));
  std::vector<NodeId> pool;
  for (std::uint64_t i = 0; i < 8; ++i) {
    pool.push_back(c.add_input(label("x", i)));
  }
  pool.push_back(c.add_const(false));
  pool.push_back(c.add_const(true));
  constexpr GateType kTypes[] = {
      GateType::kBuf, GateType::kNot,  GateType::kAnd, GateType::kNand,
      GateType::kOr,  GateType::kNor,  GateType::kXor, GateType::kXnor,
      GateType::kMaj, GateType::kConst0, GateType::kConst1};
  for (int g = 0; g < 60; ++g) {
    const GateType type = kTypes[rng.next_below(std::size(kTypes))];
    int arity = 1 + static_cast<int>(rng.next_below(4));
    if (type == GateType::kBuf || type == GateType::kNot) arity = 1;
    if (type == GateType::kMaj) arity = 3;
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      pool.push_back(c.add_const(type == GateType::kConst1));
      continue;
    }
    std::vector<NodeId> fanins;
    for (int f = 0; f < arity; ++f) {
      fanins.push_back(pool[rng.next_below(pool.size())]);
    }
    pool.push_back(c.add_gate(type, std::move(fanins)));
  }
  for (std::uint64_t o = 0; o < 6; ++o) {
    c.add_output(pool[pool.size() - 1 - rng.next_below(20)], label("y", o));
  }
  return c;
}

constexpr std::uint64_t kRandomSeeds = 16;

const Pin kRandomPins[] = {
    {"randk_s1",
     "71e237f1e9e8a4a4a8ce02756b607e4fcbdbd615f0e049aa9aa474a199907367"},
    {"randk_s2",
     "4ac15b6b82e15f95b15d938bb8f1a958aacba940e7adc613d89cad2bac359b4f"},
    {"randk_s3",
     "c5fcd7785a3d238f6c0173ef73a78d118b8bf2cda0160d1f5ea90c1a87463f61"},
    {"randk_s4",
     "26ea0a6669f3abde056830549ddeb2e83be0f4c5029254b7ca558a5bdd1ec6d1"},
    {"randk_s5",
     "92aad68e402f66c57aebd38b8ddc60c9e76b9cdd6316461407b2a72f0488cd8e"},
    {"randk_s6",
     "f4623017af4c9ce9204c758beed600519bd26dc32624283e34febe7c9a425c14"},
    {"randk_s7",
     "ce9d4f1584c37f5d61c89e3d777974d1d28a05e56794fb994eac1fe4688ba611"},
    {"randk_s8",
     "24a0c2af1190dcddd6fe65c212fcd6e6a08fd189b240a7813d323991bd685691"},
    {"randk_s9",
     "869370fc4bf2ead537675ad1d509d855cd10e74d472c5e462602cc59df5bf0f3"},
    {"randk_s10",
     "25ae3400b200ef424fee720e164b7e8673ad5102859180a02bb536b80977bd45"},
    {"randk_s11",
     "b436aad426a5c3e922e4e9af1855066381413c2732ee9362dd033d3d36d9bee6"},
    {"randk_s12",
     "7c3bf84cbbe29edd97af28708e60c65c32111cbbc757202879cbd85214dbf679"},
    {"randk_s13",
     "7de182f2d07bc468c21affc7284c994d446e3acb372b7e9b09a7c27c23370d92"},
    {"randk_s14",
     "9671e93cf0852f33d2e25dd54b090caf58b4003d073a49de4a74982ad2f53e65"},
    {"randk_s15",
     "7a0754a9fd77f3c0c3087ad4b4c659e61d40e2d96ed806f7fd35597ff6dbf5be"},
    {"randk_s16",
     "386d5d63bb6f371e41c922bed7c706331c7fd64e7d36b1a27cd51cc3f7a50b14"},
};

TEST(StaticDigest, RandomDagsWithConstantsMatchTable) {
  for (std::uint64_t seed = 1; seed <= kRandomSeeds; ++seed) {
    const Circuit c = random_with_constants(seed);
    expect_pin(kRandomPins, seed - 1, c.name(), static_digest(c));
  }
  EXPECT_EQ(kRandomSeeds, std::size(kRandomPins));
}

// ---- deep chains -----------------------------------------------------------

// `length` inverters in series behind one input: the deepest, narrowest
// implication paths there are.
Circuit not_chain(int length) {
  Circuit c(label("not_chain", static_cast<std::uint64_t>(length)));
  NodeId acc = c.add_input("x");
  for (int i = 0; i < length; ++i) acc = c.add_gate(GateType::kNot, acc);
  c.add_output(acc, "y");
  return c;
}

// Alternating AND/OR stages, each folding in one of eight inputs in turn,
// so controlling values from either operator reach the whole depth.
Circuit and_or_chain(int length) {
  Circuit c(label("and_or_chain", static_cast<std::uint64_t>(length)));
  std::vector<NodeId> inputs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    inputs.push_back(c.add_input(label("x", i)));
  }
  NodeId acc = inputs[0];
  for (int i = 1; i <= length; ++i) {
    acc = c.add_gate(i % 2 == 1 ? GateType::kAnd : GateType::kOr, acc,
                     inputs[static_cast<std::size_t>(i) % inputs.size()]);
  }
  c.add_output(acc, "y");
  return c;
}

const Pin kChainPins[] = {
    {"not_chain1000",
     "5c56340c9eef35aa4ed6a6ecf266f99b8bd7ecc2e5b7a8f3ed3a577dd15ed788"},
    {"not_chain1001",
     "8973d2aaf2dd8cbeead436fe507b8c69147bdc337dc309ef1ebb3787c9b3ae08"},
    {"and_or_chain1000",
     "e68780c98ef5b777c48ec21fdd019ac962adef4ba23ee1339002629fcf73efa9"},
};

TEST(StaticDigest, DeepChainsMatchTable) {
  const Circuit chains[] = {not_chain(1000), not_chain(1001),
                            and_or_chain(1000)};
  for (std::size_t i = 0; i < std::size(chains); ++i) {
    expect_pin(kChainPins, i, chains[i].name(), static_digest(chains[i]));
  }
  EXPECT_EQ(std::size(chains), std::size(kChainPins));
}

}  // namespace
}  // namespace enb::analysis
