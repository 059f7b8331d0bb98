#include "ham/execution_context.hpp"

namespace ham {

const aurora::context_local<const handler_registry*> execution_context::current_;

} // namespace ham
