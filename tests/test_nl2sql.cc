#include "qa/nl2sql.h"

#include <gtest/gtest.h>

#include "sql/analyzer.h"
#include "sql/parser.h"
#include "sql/table.h"

namespace easytime::qa {
namespace {

const std::vector<std::string> kMethods = {
    "naive", "theta", "gbdt", "holt", "holt_winters_add", "mlp"};
const std::vector<std::string> kDomains = {
    "traffic", "electricity", "energy", "environment", "nature",
    "economic", "stock", "banking", "health", "web"};

TranslatedQuestion T(const std::string& q) {
  auto r = TranslateQuestion(q, kMethods, kDomains);
  EXPECT_TRUE(r.ok()) << q << " -> " << r.status().ToString();
  return r.ok() ? std::move(*r) : TranslatedQuestion{};
}

TEST(Nl2Sql, MethodNameSeasonalNaiveIsNotASeasonalityFilter) {
  std::vector<std::string> methods = kMethods;
  methods.push_back("seasonal_naive");
  auto r = TranslateQuestion(
      "Is seasonal_naive or theta better on datasets with trends (by mae)?",
      methods, kDomains);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->intent, QuestionIntent::kCompareMethods);
  EXPECT_FALSE(r->filters.with_seasonality);
  EXPECT_EQ(r->sql.find("d.seasonality >"), std::string::npos) << r->sql;
  EXPECT_NE(r->sql.find("d.trend >"), std::string::npos) << r->sql;
  // The word itself still filters, next to the method name too.
  auto seasonal = TranslateQuestion(
      "Is seasonal_naive or theta better on seasonal datasets?", methods,
      kDomains);
  ASSERT_TRUE(seasonal.ok());
  EXPECT_NE(seasonal->sql.find("d.seasonality >"), std::string::npos);
}

TEST(Nl2Sql, PaperFigureFiveQuestion) {
  // The exact question shape from Fig. 5 of the paper.
  auto t = T("What are the top-8 methods (ordered by MAE) for long term "
             "forecasting on all multivariate datasets with trends?");
  EXPECT_EQ(t.intent, QuestionIntent::kTopKMethods);
  EXPECT_EQ(t.top_k, 8u);
  EXPECT_EQ(t.metric, "mae");
  EXPECT_TRUE(t.filters.want_multivariate);
  EXPECT_TRUE(t.filters.with_trend);
  EXPECT_EQ(t.filters.horizon_class, "long");
  EXPECT_NE(t.sql.find("LIMIT 8"), std::string::npos);
  EXPECT_NE(t.sql.find("d.multivariate = 1"), std::string::npos);
  EXPECT_NE(t.sql.find("d.trend >"), std::string::npos);
  EXPECT_NE(t.sql.find("r.horizon >="), std::string::npos);
  EXPECT_NE(t.sql.find("ORDER BY avg_mae ASC"), std::string::npos);
}

TEST(Nl2Sql, IntroQuestionSeasonality) {
  // The question from the paper's abstract.
  auto t = T("Which method is best for long term forecasting on time series "
             "with strong seasonality?");
  EXPECT_EQ(t.intent, QuestionIntent::kTopKMethods);
  EXPECT_EQ(t.top_k, 1u);
  EXPECT_NE(t.sql.find("d.seasonality >"), std::string::npos);
  EXPECT_NE(t.sql.find("LIMIT 1"), std::string::npos);
}

TEST(Nl2Sql, MetricSynonyms) {
  EXPECT_EQ(T("top 3 methods by rmse").metric, "rmse");
  EXPECT_EQ(T("top 3 methods by smape").metric, "smape");
  EXPECT_EQ(T("top 3 methods by mean absolute error").metric, "mae");
  EXPECT_EQ(T("top 3 methods").metric, "mae");  // default
  // r2 orders descending.
  auto t = T("top 3 methods by r2");
  EXPECT_NE(t.sql.find("DESC"), std::string::npos);
}

TEST(Nl2Sql, DomainFilter) {
  auto t = T("best method for short-term forecasting on traffic datasets");
  EXPECT_EQ(t.filters.domain, "traffic");
  EXPECT_EQ(t.filters.horizon_class, "short");
  EXPECT_NE(t.sql.find("d.domain = 'traffic'"), std::string::npos);
  EXPECT_NE(t.sql.find("r.horizon <"), std::string::npos);
}

TEST(Nl2Sql, CompareTwoMethods) {
  auto t = T("Is theta or gbdt better on datasets with trends by rmse?");
  EXPECT_EQ(t.intent, QuestionIntent::kCompareMethods);
  ASSERT_EQ(t.mentioned_methods.size(), 2u);
  EXPECT_NE(t.sql.find("r.method IN ('theta', 'gbdt')"), std::string::npos);
  EXPECT_NE(t.sql.find("GROUP BY r.method"), std::string::npos);
}

TEST(Nl2Sql, MethodAverage) {
  auto t = T("What is the average smape of holt on electricity datasets?");
  EXPECT_EQ(t.intent, QuestionIntent::kMethodAverage);
  EXPECT_EQ(t.mentioned_methods, (std::vector<std::string>{"holt"}));
  EXPECT_NE(t.sql.find("r.method = 'holt'"), std::string::npos);
  EXPECT_NE(t.sql.find("d.domain = 'electricity'"), std::string::npos);
}

TEST(Nl2Sql, MethodNameBoundaryMatching) {
  // "holt_winters_add" must not also match the substring "holt".
  auto t = T("What is the average mae of holt_winters_add?");
  EXPECT_EQ(t.mentioned_methods,
            (std::vector<std::string>{"holt_winters_add"}));
}

TEST(Nl2Sql, CountAndListDatasets) {
  auto count = T("How many datasets have strong seasonality?");
  EXPECT_EQ(count.intent, QuestionIntent::kCountDatasets);
  EXPECT_NE(count.sql.find("COUNT(*)"), std::string::npos);
  EXPECT_EQ(count.sql.find("d."), std::string::npos);  // unqualified

  auto list = T("List all multivariate datasets with shifting.");
  EXPECT_EQ(list.intent, QuestionIntent::kListDatasets);
  EXPECT_NE(list.sql.find("multivariate = 1"), std::string::npos);
  EXPECT_NE(list.sql.find("shifting >"), std::string::npos);
}

TEST(Nl2Sql, ListMethodsAndDomains) {
  auto methods = T("Which methods are available?");
  EXPECT_EQ(methods.intent, QuestionIntent::kListMethods);
  EXPECT_NE(methods.sql.find("FROM methods"), std::string::npos);

  auto domains = T("How many datasets per domain?");
  EXPECT_EQ(domains.intent, QuestionIntent::kDomainBreakdown);
  EXPECT_NE(domains.sql.find("GROUP BY domain"), std::string::npos);
}

TEST(Nl2Sql, FamilyRankingJoinsMethodsTable) {
  auto t = T("Is the statistical or deep family better for long-term "
             "forecasting by rmse?");
  EXPECT_EQ(t.intent, QuestionIntent::kFamilyRanking);
  EXPECT_NE(t.sql.find("JOIN methods m ON r.method = m.name"),
            std::string::npos);
  EXPECT_NE(t.sql.find("GROUP BY m.family"), std::string::npos);
  EXPECT_NE(t.sql.find("avg_rmse"), std::string::npos);

  auto t2 = T("which family of methods wins on seasonal datasets?");
  EXPECT_EQ(t2.intent, QuestionIntent::kFamilyRanking);
  EXPECT_NE(t2.sql.find("d.seasonality >"), std::string::npos);
}

TEST(Nl2Sql, StationaryVsNonStationary) {
  auto s = T("top 3 methods on stationary datasets");
  EXPECT_NE(s.sql.find("d.stationarity >"), std::string::npos);
  auto ns = T("top 3 methods on non-stationary datasets");
  EXPECT_NE(ns.sql.find("d.stationarity <="), std::string::npos);
}

TEST(Nl2Sql, UnsupportedQuestionsRejected) {
  for (const char* q :
       {"", "Will the sales in Shanghai increase next month?",
        "hello there", "what is the meaning of life"}) {
    auto r = TranslateQuestion(q, kMethods, kDomains);
    EXPECT_FALSE(r.ok()) << q;
  }
}

TEST(Nl2Sql, GeneratedSqlAlwaysVerifies) {
  // Every supported question shape must produce SQL that parses and passes
  // semantic verification against the knowledge-base schema.
  sql::Database db;
  ASSERT_TRUE(db.CreateTable("datasets",
                             {{"name", sql::DataType::kText},
                              {"domain", sql::DataType::kText},
                              {"multivariate", sql::DataType::kInteger},
                              {"num_channels", sql::DataType::kInteger},
                              {"length", sql::DataType::kInteger},
                              {"seasonality", sql::DataType::kReal},
                              {"trend", sql::DataType::kReal},
                              {"transition", sql::DataType::kReal},
                              {"shifting", sql::DataType::kReal},
                              {"stationarity", sql::DataType::kReal},
                              {"correlation", sql::DataType::kReal},
                              {"period", sql::DataType::kInteger}})
                  .ok());
  ASSERT_TRUE(db.CreateTable("methods",
                             {{"name", sql::DataType::kText},
                              {"family", sql::DataType::kText},
                              {"description", sql::DataType::kText}})
                  .ok());
  ASSERT_TRUE(db.CreateTable("results",
                             {{"dataset", sql::DataType::kText},
                              {"method", sql::DataType::kText},
                              {"strategy", sql::DataType::kText},
                              {"horizon", sql::DataType::kInteger},
                              {"metric", sql::DataType::kText},
                              {"value", sql::DataType::kReal},
                              {"fit_seconds", sql::DataType::kReal},
                              {"forecast_seconds", sql::DataType::kReal}})
                  .ok());

  const char* questions[] = {
      "What are the top-8 methods (ordered by MAE) for long term forecasting "
      "on all multivariate datasets with trends?",
      "Which method is best for short term forecasting on traffic datasets "
      "with strong seasonality?",
      "Is theta or gbdt better on datasets with trends by rmse?",
      "What is the average smape of holt on electricity datasets?",
      "How many datasets have strong seasonality?",
      "List all multivariate datasets with shifting.",
      "Which methods are available?",
      "How many datasets per domain?",
      "top 5 methods by mase on univariate stationary datasets",
      "best 3 methods for long-term forecasting on health datasets",
      "Is the statistical or deep family better by rmse?",
  };
  for (const char* q : questions) {
    auto t = TranslateQuestion(q, kMethods, kDomains);
    ASSERT_TRUE(t.ok()) << q;
    auto stmt = sql::ParseSelect(t->sql);
    ASSERT_TRUE(stmt.ok()) << q << "\nSQL: " << t->sql << "\n"
                           << stmt.status().ToString();
    Status verify = sql::AnalyzeSelect(db, *stmt);
    EXPECT_TRUE(verify.ok()) << q << "\nSQL: " << t->sql << "\n"
                             << verify.ToString();
  }
}

TEST(Nl2Sql, RobustToCasingAndPunctuation) {
  auto upper = T("WHAT ARE THE TOP-4 METHODS BY RMSE ON TRAFFIC DATASETS?");
  EXPECT_EQ(upper.top_k, 4u);
  EXPECT_EQ(upper.metric, "rmse");
  EXPECT_EQ(upper.filters.domain, "traffic");

  auto spaced = T("   top 2   methods...   by   smape!!  ");
  EXPECT_EQ(spaced.top_k, 2u);
  EXPECT_EQ(spaced.metric, "smape");

  auto mixed = T("Which Method Is BEST on Multivariate datasets With Trends?");
  EXPECT_EQ(mixed.top_k, 1u);
  EXPECT_TRUE(mixed.filters.want_multivariate);
  EXPECT_TRUE(mixed.filters.with_trend);
}

TEST(Nl2Sql, DescribeFiltersReadable) {
  QuestionFilters f;
  f.want_multivariate = true;
  f.with_trend = true;
  f.horizon_class = "long";
  std::string text = DescribeFilters(f);
  EXPECT_NE(text.find("multivariate"), std::string::npos);
  EXPECT_NE(text.find("trending"), std::string::npos);
  EXPECT_NE(text.find("long-term"), std::string::npos);
  EXPECT_EQ(DescribeFilters(QuestionFilters{}), "all datasets");
}

}  // namespace
}  // namespace easytime::qa
