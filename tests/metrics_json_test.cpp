//===- tests/metrics_json_test.cpp - PipelineMetrics / JSON export -------------===//
//
// The metrics smoke tests promised in docs/TESTING.md: the JSON emitted
// behind `specpre-opt --metrics-out=` must be well-formed, carry exactly
// one entry per pipeline step (in pipeline order), and report
// non-negative, consistent numbers. A minimal recursive-descent JSON
// parser lives in this file so the check does not depend on an external
// JSON library the toolchain may not have.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "pre/ParallelDriver.h"
#include "pre/PreDriver.h"
#include "profile/Profile.h"
#include "support/PassTimer.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <variant>
#include <vector>

using namespace specpre;

//===----------------------------------------------------------------------===//
// Minimal JSON parser (objects, arrays, strings, numbers)
//===----------------------------------------------------------------------===//

namespace {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::monostate, double, std::string, JsonArray, JsonObject> V;

  bool isNumber() const { return std::holds_alternative<double>(V); }
  double num() const { return std::get<double>(V); }
  const std::string &str() const { return std::get<std::string>(V); }
  const JsonArray &arr() const { return std::get<JsonArray>(V); }
  const JsonObject &obj() const { return std::get<JsonObject>(V); }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  /// Parses the whole input; sets Ok=false on any syntax error or
  /// trailing garbage.
  JsonValue parse() {
    JsonValue V = parseValue();
    skipWs();
    if (Pos != Text.size())
      Ok = false;
    return V;
  }

  bool ok() const { return Ok; }

private:
  void skipWs() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
  }

  char peek() {
    skipWs();
    return Pos < Text.size() ? Text[Pos] : '\0';
  }

  bool consume(char C) {
    if (peek() != C) {
      Ok = false;
      return false;
    }
    ++Pos;
    return true;
  }

  JsonValue parseValue() {
    switch (peek()) {
    case '{':
      return parseObject();
    case '[':
      return parseArray();
    case '"':
      return {JsonValue{parseString()}};
    default:
      return parseNumber();
    }
  }

  std::string parseString() {
    std::string S;
    if (!consume('"'))
      return S;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\' && Pos + 1 < Text.size())
        ++Pos;
      S += Text[Pos++];
    }
    if (Pos == Text.size())
      Ok = false;
    else
      ++Pos; // closing quote
    return S;
  }

  JsonValue parseNumber() {
    skipWs();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '-' || Text[Pos] == '+' || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E'))
      ++Pos;
    if (Pos == Start) {
      Ok = false;
      return {};
    }
    try {
      return {JsonValue{std::stod(Text.substr(Start, Pos - Start))}};
    } catch (...) {
      Ok = false;
      return {};
    }
  }

  JsonValue parseArray() {
    JsonArray A;
    consume('[');
    if (peek() == ']') {
      ++Pos;
      return {JsonValue{std::move(A)}};
    }
    while (Ok) {
      A.push_back(parseValue());
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      consume(']');
      break;
    }
    return {JsonValue{std::move(A)}};
  }

  JsonValue parseObject() {
    JsonObject O;
    consume('{');
    if (peek() == '}') {
      ++Pos;
      return {JsonValue{std::move(O)}};
    }
    while (Ok) {
      if (peek() != '"') {
        Ok = false;
        break;
      }
      std::string Key = parseString();
      consume(':');
      O.emplace(std::move(Key), parseValue());
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      consume('}');
      break;
    }
    return {JsonValue{std::move(O)}};
  }

  const std::string &Text;
  size_t Pos = 0;
  bool Ok = true;
};

/// Runs three generated programs through PRE with metrics collection,
/// one pool task per program.
PipelineMetrics collectMetrics(PreStrategy Strategy, unsigned Jobs) {
  std::vector<Function> Fns;
  std::vector<Profile> Profs, NodeOnly;
  for (uint64_t Seed : {19u, 23u, 29u}) {
    GeneratorConfig Cfg;
    Function F = generateProgram(Seed, Cfg, "metrics" + std::to_string(Seed));
    prepareFunction(F);
    Profile Prof;
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    std::vector<int64_t> Args(F.Params.size(), 11);
    interpret(F, Args, EO);
    NodeOnly.push_back(Prof.withoutEdgeFreqs());
    Profs.push_back(std::move(Prof));
    Fns.push_back(std::move(F));
  }

  std::vector<CompileTask> Tasks;
  for (unsigned I = 0; I != Fns.size(); ++I) {
    PreOptions PO;
    PO.Strategy = Strategy;
    PO.Prof = Strategy == PreStrategy::McPre ? &Profs[I] : &NodeOnly[I];
    Tasks.push_back({&Fns[I], PO});
  }
  ParallelConfig PC;
  PC.Jobs = Jobs;
  ParallelPreDriver Driver(PC);
  PipelineMetrics M;
  Driver.compileCorpus(Tasks, nullptr, &M);
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Schema tests
//===----------------------------------------------------------------------===//

TEST(MetricsJson, OneEntryPerStepInPipelineOrder) {
  PipelineMetrics M = collectMetrics(PreStrategy::McSsaPre, 1);
  std::string Json = M.toJson();
  JsonParser P(Json);
  JsonValue V = P.parse();
  ASSERT_TRUE(P.ok()) << "invalid JSON: " << Json;

  const JsonArray &Steps = V.arr();
  ASSERT_EQ(Steps.size(), NumPipelineSteps);
  for (unsigned S = 0; S != NumPipelineSteps; ++S) {
    const JsonObject &O = Steps[S].obj();
    ASSERT_TRUE(O.count("step"));
    ASSERT_TRUE(O.count("invocations"));
    ASSERT_TRUE(O.count("millis"));
    ASSERT_TRUE(O.count("problem_size"));
    EXPECT_EQ(O.at("step").str(),
              pipelineStepName(static_cast<PipelineStep>(S)));
    EXPECT_GE(O.at("invocations").num(), 0.0);
    EXPECT_GE(O.at("millis").num(), 0.0);
    EXPECT_GE(O.at("problem_size").num(), 0.0);
  }
}

TEST(MetricsJson, McSsaPreExercisesItsSteps) {
  PipelineMetrics M = collectMetrics(PreStrategy::McSsaPre, 1);
  // A non-trivial generated program has candidates, so the FRG steps and
  // the MC data flow must have run; wall time is bounded below by zero
  // but invocation counts are exact.
  EXPECT_GT(M.step(PipelineStep::PhiInsertion).Invocations, 0u);
  EXPECT_GT(M.step(PipelineStep::Rename).Invocations, 0u);
  EXPECT_GT(M.step(PipelineStep::DataFlow).Invocations, 0u);
  EXPECT_GT(M.step(PipelineStep::Finalize).Invocations, 0u);
  EXPECT_GT(M.totalNanos(), 0u);
  // Problem sizes accompany the invocations.
  EXPECT_GT(M.step(PipelineStep::PhiInsertion).ProblemSize, 0u);
}

TEST(MetricsJson, ParallelCollectionLosesNothing) {
  // Fanning the functions out loses and duplicates no work: every
  // step's invocation count and problem size agree between jobs=1 and
  // jobs=4, the FRG steps included (each FRG is built once).
  PipelineMetrics Serial = collectMetrics(PreStrategy::McSsaPre, 1);
  PipelineMetrics Parallel = collectMetrics(PreStrategy::McSsaPre, 4);
  for (unsigned I = 0; I != NumPipelineSteps; ++I) {
    PipelineStep S = static_cast<PipelineStep>(I);
    EXPECT_EQ(Serial.step(S).Invocations, Parallel.step(S).Invocations)
        << pipelineStepName(S);
    EXPECT_EQ(Serial.step(S).ProblemSize, Parallel.step(S).ProblemSize)
        << pipelineStepName(S);
  }
}

TEST(MetricsJson, MergeSumsShards) {
  PipelineMetrics A, B;
  A.note(PipelineStep::MinCut, 100, 7);
  A.note(PipelineStep::MinCut, 50, 3);
  B.note(PipelineStep::MinCut, 25, 1);
  B.note(PipelineStep::Rename, 10, 2);
  A.merge(B);
  EXPECT_EQ(A.step(PipelineStep::MinCut).Invocations, 3u);
  EXPECT_EQ(A.step(PipelineStep::MinCut).Nanos, 175u);
  EXPECT_EQ(A.step(PipelineStep::MinCut).ProblemSize, 11u);
  EXPECT_EQ(A.step(PipelineStep::Rename).Invocations, 1u);
  EXPECT_EQ(A.totalNanos(), 185u);
}

TEST(MetricsJson, NoSinkMeansNoCollection) {
  EXPECT_EQ(currentMetricsSink(), nullptr);
  { PassTimer T(PipelineStep::MinCut, 99); } // no-op without a sink
  PipelineMetrics M;
  {
    MetricsScope Scope(&M);
    EXPECT_EQ(currentMetricsSink(), &M);
    {
      MetricsScope Inner(nullptr); // suspension
      EXPECT_EQ(currentMetricsSink(), nullptr);
      PassTimer T(PipelineStep::MinCut, 5);
    }
    EXPECT_EQ(currentMetricsSink(), &M);
  }
  EXPECT_EQ(currentMetricsSink(), nullptr);
  EXPECT_EQ(M.step(PipelineStep::MinCut).Invocations, 0u);
  EXPECT_EQ(M.totalNanos(), 0u);
}

TEST(MetricsJson, EmptyMetricsStillFullSchema) {
  PipelineMetrics M;
  std::string Json = M.toJson();
  JsonParser P(Json);
  JsonValue V = P.parse();
  ASSERT_TRUE(P.ok()) << "invalid JSON: " << Json;
  ASSERT_EQ(V.arr().size(), NumPipelineSteps);
  for (const JsonValue &Step : V.arr()) {
    EXPECT_EQ(Step.obj().at("invocations").num(), 0.0);
    EXPECT_EQ(Step.obj().at("millis").num(), 0.0);
  }
}
