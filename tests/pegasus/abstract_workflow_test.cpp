#include "pegasus/abstract_workflow.hpp"

#include <gtest/gtest.h>

namespace sf::pegasus {
namespace {

/// Builds the paper's Figure 3 workflow: a chain of n matmul tasks where
/// task i consumes the previous result plus a fresh input matrix.
AbstractWorkflow chain_workflow(int n) {
  // Appends rather than writing "m" + std::to_string(i), which GCC 12
  // flags with a false -Wrestrict at -O3.
  auto name = [](const char* prefix, int i, const char* suffix) {
    std::string s = prefix;
    s += std::to_string(i);
    s += suffix;
    return s;
  };
  AbstractWorkflow wf("chain");
  wf.declare_file("m0.dat", 490000);
  for (int i = 0; i < n; ++i) {
    wf.declare_file(name("b", i, ".dat"), 490000);
    wf.declare_file(name("m", i + 1, ".dat"), 490000);
    AbstractJob job;
    job.id = name("t", i, "");
    job.transformation = "matmul";
    job.uses = {{name("m", i, ".dat"), LinkType::kInput},
                {name("b", i, ".dat"), LinkType::kInput},
                {name("m", i + 1, ".dat"), LinkType::kOutput}};
    wf.add_job(std::move(job));
  }
  return wf;
}

TEST(AbstractWorkflow, JobUsesSplitByDirection) {
  const auto wf = chain_workflow(2);
  const auto& j = wf.job("t0");
  EXPECT_EQ(j.inputs(), (std::vector<std::string>{"m0.dat", "b0.dat"}));
  EXPECT_EQ(j.outputs(), (std::vector<std::string>{"m1.dat"}));
}

TEST(AbstractWorkflow, ProducerTracking) {
  const auto wf = chain_workflow(2);
  EXPECT_EQ(wf.producer_of("m1.dat"), "t0");
  EXPECT_EQ(wf.producer_of("m0.dat"), "");
}

TEST(AbstractWorkflow, DependenciesInferredFromFiles) {
  const auto wf = chain_workflow(3);
  EXPECT_TRUE(wf.parents_of("t0").empty());
  EXPECT_EQ(wf.parents_of("t1"), (std::vector<std::string>{"t0"}));
  EXPECT_EQ(wf.parents_of("t2"), (std::vector<std::string>{"t1"}));
}

TEST(AbstractWorkflow, InitialInputsAndFinalOutputs) {
  const auto wf = chain_workflow(2);
  const auto initial = wf.initial_inputs();
  EXPECT_EQ(initial.size(), 3u);  // m0 + b0 + b1
  EXPECT_EQ(wf.final_outputs(), (std::vector<std::string>{"m2.dat"}));

  // Both lists are sorted by name, whatever order the uses list them in.
  AbstractWorkflow many("many");
  for (const char* lfn : {"in", "z.out", "a.out", "m.out", "b.out"}) {
    many.declare_file(lfn, 1);
  }
  many.add_job({"j", "t", {{"in", LinkType::kInput},
                           {"z.out", LinkType::kOutput},
                           {"a.out", LinkType::kOutput},
                           {"m.out", LinkType::kOutput},
                           {"b.out", LinkType::kOutput}}});
  EXPECT_EQ(many.initial_inputs(), (std::vector<std::string>{"in"}));
  EXPECT_EQ(many.final_outputs(),
            (std::vector<std::string>{"a.out", "b.out", "m.out", "z.out"}));
}

TEST(AbstractWorkflow, FileSizesDeclared) {
  const auto wf = chain_workflow(1);
  EXPECT_DOUBLE_EQ(wf.file_bytes("m0.dat"), 490000);
  EXPECT_THROW(static_cast<void>(wf.file_bytes("nope")), std::out_of_range);
  EXPECT_TRUE(wf.has_file("m0.dat"));
  EXPECT_FALSE(wf.has_file("nope"));
}

TEST(AbstractWorkflow, DuplicateJobRejected) {
  auto wf = chain_workflow(1);
  AbstractJob dup;
  dup.id = "t0";
  dup.transformation = "matmul";
  EXPECT_THROW(wf.add_job(std::move(dup)), std::invalid_argument);
}

TEST(AbstractWorkflow, UndeclaredFileRejected) {
  AbstractWorkflow wf("w");
  AbstractJob j;
  j.id = "a";
  j.transformation = "matmul";
  j.uses = {{"ghost", LinkType::kInput}};
  EXPECT_THROW(wf.add_job(std::move(j)), std::invalid_argument);
}

TEST(AbstractWorkflow, DoubleProducerRejected) {
  AbstractWorkflow wf("w");
  wf.declare_file("x", 1);
  AbstractJob a;
  a.id = "a";
  a.transformation = "t";
  a.uses = {{"x", LinkType::kOutput}};
  wf.add_job(std::move(a));
  AbstractJob b;
  b.id = "b";
  b.transformation = "t";
  b.uses = {{"x", LinkType::kOutput}};
  EXPECT_THROW(wf.add_job(std::move(b)), std::invalid_argument);
}

TEST(AbstractWorkflow, UnknownJobLookupThrows) {
  const auto wf = chain_workflow(1);
  EXPECT_THROW(static_cast<void>(wf.job("ghost")), std::out_of_range);
}

TEST(AbstractWorkflow, FanoutParents) {
  AbstractWorkflow wf("fan");
  wf.declare_file("in", 1);
  wf.declare_file("a.out", 1);
  wf.declare_file("b.out", 1);
  wf.declare_file("joined", 1);
  for (const std::string id : {"a", "b"}) {
    // Initialized, not assigned: assigning "t" here trips a false
    // -Wrestrict in GCC 12 at -O3.
    wf.add_job({.id = id,
                .transformation = "t",
                .uses = {{"in", LinkType::kInput},
                         {id + ".out", LinkType::kOutput}}});
  }
  AbstractJob join;
  join.id = "join";
  join.transformation = "t";
  join.uses = {{"a.out", LinkType::kInput},
               {"b.out", LinkType::kInput},
               {"joined", LinkType::kOutput}};
  wf.add_job(std::move(join));
  EXPECT_EQ(wf.parents_of("join"), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace sf::pegasus
