#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace enb::netlist {
namespace {

using Kind = BenchStatement::Kind;
constexpr std::uint32_t kNoStatement = ~std::uint32_t{0};

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '.' || c == '[' || c == ']' || c == '$' || c == '/';
}

bool is_name(std::string_view text) {
  return !text.empty() && std::all_of(text.begin(), text.end(), is_name_char);
}

std::string_view strip(std::string_view text) {
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (!text.empty() && space(text.front())) text.remove_prefix(1);
  while (!text.empty() && space(text.back())) text.remove_suffix(1);
  return text;
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](char x, char y) {
    return std::toupper(static_cast<unsigned char>(x)) ==
           std::toupper(static_cast<unsigned char>(y));
  });
}

struct Call {
  std::string_view head;
  std::vector<std::string_view> args;
};

// Parses `HEAD(a, b, ...)` ending at the closing ')'; false on any other
// shape.
bool parse_call(std::string_view text, Call& call) {
  const std::size_t open = text.find('(');
  if (open == std::string_view::npos || text.back() != ')') return false;
  call.head = strip(text.substr(0, open));
  call.args.clear();
  if (!is_name(call.head)) return false;
  std::string_view args = text.substr(open + 1, text.size() - open - 2);
  if (strip(args).empty()) return true;  // e.g. CONST0()
  while (true) {
    const std::size_t comma = args.find(',');
    const std::string_view arg =
        strip(comma == std::string_view::npos ? args : args.substr(0, comma));
    if (!is_name(arg)) return false;
    call.args.push_back(arg);
    if (comma == std::string_view::npos) return true;
    args.remove_prefix(comma + 1);
  }
}

// Post-order depth-first search over each net's first gate definition with
// an explicit stack: the one resolver behind both the cycle issues and the
// build. Nets no gate defines (inputs, latch outputs, undriven nets) have
// no operands to follow and count as resolved from the start.
class Resolver {
 public:
  struct Frame {
    std::uint32_t net;
    std::size_t next;  // operands already followed
  };

  explicit Resolver(const BenchSource& source)
      : statements_(source.statements),
        gate_(source.nets.size(), kNoStatement),
        state_(source.nets.size(), State::kDone) {
    for (std::size_t i = statements_.size(); i-- > 0;) {
      if (statements_[i].kind == Kind::kGate) {
        gate_[statements_[i].net] = static_cast<std::uint32_t>(i);
        state_[statements_[i].net] = State::kFresh;
      }
    }
  }

  // The first gate definition of a net that has one.
  [[nodiscard]] const BenchStatement& gate(std::uint32_t net) const {
    return statements_[gate_[net]];
  }

  // Resolves `root` unless it already is: `done(net)` runs once per net,
  // after its operands; `cycle(path, net)` runs for each operand found on
  // the current path.
  template <class Done, class Cycle>
  void visit(std::uint32_t root, Done done, Cycle cycle) {
    if (state_[root] != State::kFresh) return;
    state_[root] = State::kActive;
    path_.push_back(Frame{root, 0});
    while (!path_.empty()) {
      Frame& top = path_.back();
      const std::vector<std::uint32_t>& operands = gate(top.net).operands;
      if (top.next == operands.size()) {
        const std::uint32_t net = top.net;
        path_.pop_back();
        state_[net] = State::kDone;
        done(net);
        continue;
      }
      const std::uint32_t operand = operands[top.next++];
      if (state_[operand] == State::kFresh) {
        state_[operand] = State::kActive;
        path_.push_back(Frame{operand, 0});
      } else if (state_[operand] == State::kActive) {
        cycle(path_, operand);
      }
    }
  }

 private:
  enum class State : std::uint8_t { kFresh, kActive, kDone };
  const std::vector<BenchStatement>& statements_;
  std::vector<std::uint32_t> gate_;
  std::vector<State> state_;
  std::vector<Frame> path_;
};

struct Scanner {
  struct Net {
    int driven_at = 0;  // line of the first INPUT, definition or latch
    int used_at = 0;    // line of the first operand or OUTPUT listing
  };

  bool latches = false;
  BenchSource source;
  std::vector<Net> net_info;
  // Keys view the scanned text, which outlives the scan.
  std::unordered_map<std::string_view, std::uint32_t> index;
  Call call;

  void scan_line(std::string_view line, int number);
  BenchSource finish();

  std::uint32_t intern(std::string_view name) {
    const auto [it, inserted] = index.try_emplace(
        name, static_cast<std::uint32_t>(source.nets.size()));
    if (inserted) {
      source.nets.emplace_back(name);
      net_info.emplace_back();
    }
    return it->second;
  }

  void issue(BenchIssueKind kind, std::string site, std::string message) {
    source.issues.push_back(
        BenchIssue{kind, std::move(site), std::move(message)});
  }

  void drive(std::uint32_t net, int line) {
    Net& state = net_info[net];
    if (state.driven_at == 0) {
      state.driven_at = line;
      return;
    }
    issue(BenchIssueKind::kMultiDriven, source.nets[net],
          "net '" + source.nets[net] + "' is driven on line " +
              std::to_string(line) + " and on line " +
              std::to_string(state.driven_at));
  }

  void use(std::uint32_t net, int line) {
    if (net_info[net].used_at == 0) net_info[net].used_at = line;
  }
};

void Scanner::scan_line(std::string_view line, int number) {
  const auto syntax = [&](std::string message) {
    issue(BenchIssueKind::kSyntax, "line " + std::to_string(number),
          std::move(message));
  };
  BenchStatement statement;
  statement.line = number;

  const std::size_t eq = line.find('=');
  if (eq == std::string_view::npos) {
    if (!parse_call(line, call) || call.args.size() != 1) {
      syntax("expected INPUT(name), OUTPUT(name), or 'net = GATE(...)': '" +
             std::string(line) + "'");
      return;
    }
    const bool input = gate_type_from_string(call.head) == GateType::kInput;
    if (!input && !equals_ignore_case(call.head, "OUTPUT")) {
      syntax("unknown declaration '" + std::string(call.head) +
             "' (expected INPUT or OUTPUT)");
      return;
    }
    statement.kind = input ? Kind::kInput : Kind::kOutput;
    statement.net = intern(call.args[0]);
    if (input) {
      drive(statement.net, number);
    } else {
      use(statement.net, number);
    }
    source.statements.push_back(std::move(statement));
    return;
  }

  const std::string_view lhs = strip(line.substr(0, eq));
  if (!is_name(lhs)) {
    syntax("malformed net name before '=': '" + std::string(line) + "'");
    return;
  }
  if (!parse_call(strip(line.substr(eq + 1)), call)) {
    syntax("malformed gate call after '=': '" + std::string(line) + "'");
    return;
  }
  const std::optional<GateType> type = gate_type_from_string(call.head);
  if (latches && !type && equals_ignore_case(call.head, "DFF")) {
    if (call.args.size() != 1) {
      syntax("DFF '" + std::string(lhs) + "' needs exactly one data net");
      return;
    }
    statement.kind = Kind::kLatch;
  } else if (!type || *type == GateType::kInput) {
    syntax("unknown gate type '" + std::string(call.head) +
           "' (sequential elements are not supported)");
    return;
  } else {
    statement.kind = Kind::kGate;
    statement.type = *type;
  }
  statement.net = intern(lhs);
  drive(statement.net, number);
  const ArityRange arity = arity_range(statement.type);
  if (statement.kind == Kind::kGate && call.args.empty() && arity.min > 0) {
    issue(BenchIssueKind::kZeroFanin, std::string(lhs),
          "gate '" + std::string(lhs) + "' (" + std::string(call.head) +
              ") has no fanins; " + std::string(to_string(statement.type)) +
              " needs at least " + std::to_string(arity.min));
  }
  statement.operands.reserve(call.args.size());
  for (const std::string_view arg : call.args) {
    statement.operands.push_back(intern(arg));
    use(statement.operands.back(), number);
  }
  source.statements.push_back(std::move(statement));
}

// Undriven nets in name order, then one cycle per back edge that a search
// from the gate-defined nets in name order finds.
BenchSource Scanner::finish() {
  std::vector<std::uint32_t> by_name(source.nets.size());
  std::iota(by_name.begin(), by_name.end(), 0U);
  std::sort(by_name.begin(), by_name.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return source.nets[a] < source.nets[b];
            });
  for (const std::uint32_t net : by_name) {
    if (net_info[net].used_at == 0 || net_info[net].driven_at != 0) continue;
    const std::string& name = source.nets[net];
    issue(BenchIssueKind::kUndriven, name,
          "net '" + name + "' is used on line " +
              std::to_string(net_info[net].used_at) +
              " but never driven (no INPUT declaration or gate definition)");
  }

  Resolver resolver(source);
  const auto cycle = [&](const std::vector<Resolver::Frame>& path,
                         std::uint32_t net) {
    std::string rendered;
    auto at = std::find_if(path.begin(), path.end(),
                           [&](const Resolver::Frame& f) { return f.net == net; });
    for (; at != path.end(); ++at) rendered += source.nets[at->net] + " -> ";
    issue(BenchIssueKind::kCycle, source.nets[net],
          "combinational cycle: " + rendered + source.nets[net]);
  };
  for (const std::uint32_t net : by_name) {
    resolver.visit(net, [](std::uint32_t) {}, cycle);
  }
  return std::move(source);
}

}  // namespace

BenchSource scan_bench(std::string_view text, bool latches) {
  Scanner scanner;
  scanner.latches = latches;
  for (std::size_t begin = 0, number = 1; begin < text.size(); ++number) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    line = strip(line.substr(0, line.find('#')));
    if (!line.empty()) scanner.scan_line(line, static_cast<int>(number));
  }
  return scanner.finish();
}

BenchCircuit build_bench(const BenchSource& source, std::string name) {
  if (!source.issues.empty()) {
    const BenchIssue& first = source.issues.front();
    throw BenchParseError("bench parse error: " + first.site + ": " +
                          first.message);
  }
  BenchCircuit built{Circuit(std::move(name)), {}};
  Circuit& circuit = built.circuit;
  const std::vector<std::string>& nets = source.nets;
  std::vector<NodeId> node(nets.size(), kInvalidNode);
  for (const BenchStatement& statement : source.statements) {
    if (statement.kind == Kind::kInput || statement.kind == Kind::kLatch) {
      node[statement.net] = circuit.add_input(nets[statement.net]);
    }
  }

  // No issues: every operand is driven and no net reaches itself.
  Resolver resolver(source);
  std::vector<NodeId> fanins;
  const auto add_gate = [&](std::uint32_t net) {
    const BenchStatement& gate = resolver.gate(net);
    fanins.clear();
    for (const std::uint32_t operand : gate.operands) {
      fanins.push_back(node[operand]);
    }
    try {
      node[net] = circuit.add_gate(gate.type, fanins);
    } catch (const std::invalid_argument& e) {
      throw BenchParseError("bench parse error at line " +
                            std::to_string(gate.line) + ": " + e.what());
    }
    circuit.set_node_name(node[net], nets[net]);
  };
  const auto resolve = [&](std::uint32_t net) {
    resolver.visit(net, add_gate, [](const auto&, std::uint32_t) {});
    return node[net];
  };
  for (const BenchStatement& statement : source.statements) {
    if (statement.kind == Kind::kOutput) {
      circuit.add_output(resolve(statement.net), nets[statement.net]);
    }
  }
  for (const BenchStatement& statement : source.statements) {
    if (statement.kind == Kind::kLatch) {
      built.latches.emplace_back(node[statement.net],
                                 resolve(statement.operands[0]));
    }
  }
  for (const BenchStatement& statement : source.statements) {
    if (statement.kind == Kind::kGate) resolve(statement.net);
  }
  return built;
}

BenchFile load_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw BenchParseError("cannot open bench file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  std::string stem = path.substr(path.find_last_of('/') + 1);
  stem = stem.substr(0, stem.rfind('.'));
  return BenchFile{text.str(), std::move(stem)};
}

Circuit read_bench_string(std::string_view text, std::string name) {
  return build_bench(scan_bench(text), std::move(name)).circuit;
}

Circuit read_bench_file(const std::string& path) {
  BenchFile file = load_bench_file(path);
  return read_bench_string(file.text, std::move(file.stem));
}

void write_bench(const Circuit& circuit, std::ostream& out) {
  out << "# " << (circuit.name().empty() ? "enbound circuit" : circuit.name())
      << "\n";
  for (NodeId id : circuit.inputs()) {
    out << "INPUT(" << circuit.node_name(id) << ")\n";
  }
  for (NodeId id : circuit.outputs()) {
    out << "OUTPUT(" << circuit.node_name(id) << ")\n";
  }
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const auto type = circuit.type(id);
    const auto fanins = circuit.fanins(id);
    if (type == GateType::kInput) continue;
    out << circuit.node_name(id) << " = " << to_string(type) << "(";
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      if (i != 0) out << ", ";
      out << circuit.node_name(fanins[i]);
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Circuit& circuit) {
  std::ostringstream out;
  write_bench(circuit, out);
  return out.str();
}

void write_bench_file(const Circuit& circuit, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write bench file: " + path);
  write_bench(circuit, out);
}

}  // namespace enb::netlist
